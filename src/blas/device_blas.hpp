// Device-side BLAS-1 building blocks (paper §3.2).
//
// These are the inlined device functions the batched solvers are composed
// of: dot, norm, axpy-style updates, copies. Each executes within one
// work-group (= one linear system) as a barrier-delimited phase and charges
// its floating-point work and its per-operand memory traffic to the
// work-group's counters, attributed to the operand's memory space. Sharing
// these blocks across all solvers mirrors the paper's code-reuse argument.
#pragma once

#include <cmath>

#include "xpu/group.hpp"
#include "xpu/span.hpp"

namespace batchlin::blas {

using xpu::dspan;
using xpu::mem_space;

namespace detail {

/// Charges `n` element reads of `s` to the counters of `g`.
template <typename T>
void charge_read(xpu::group& g, const dspan<T>& s, index_type n)
{
    const double bytes = static_cast<double>(n) * sizeof(T);
    switch (s.space) {
    case mem_space::slm:
        g.stats().slm_bytes += bytes;
        break;
    case mem_space::constant:
        g.stats().constant_read_bytes += bytes;
        break;
    case mem_space::global:
        g.stats().global_read_bytes += bytes;
        break;
    }
}

/// Charges `n` element writes of `s`; read-only space is promoted to global
/// (a kernel writing a "constant" operand is outside the model).
template <typename T>
void charge_write(xpu::group& g, const dspan<T>& s, index_type n)
{
    const double bytes = static_cast<double>(n) * sizeof(T);
    if (s.space == mem_space::slm) {
        g.stats().slm_bytes += bytes;
    } else {
        g.stats().global_write_bytes += bytes;
    }
}

}  // namespace detail

/// x[i] = value for all i.
template <typename T>
void fill(xpu::group& g, dspan<T> x, T value)
{
    g.for_items(x.len, [&](index_type i) { x[i] = value; });
    detail::charge_write(g, x, x.len);
}

/// dst = src (lengths must match; validated by the workspace planner).
template <typename T>
void copy(xpu::group& g, dspan<const T> src, dspan<T> dst)
{
    g.for_items(src.len, [&](index_type i) { dst[i] = src[i]; });
    detail::charge_read(g, src, src.len);
    detail::charge_write(g, dst, src.len);
}

/// x *= alpha.
template <typename T>
void scale(xpu::group& g, T alpha, dspan<T> x)
{
    g.for_items(x.len, [&](index_type i) { x[i] *= alpha; });
    g.stats().flops += static_cast<double>(x.len);
    detail::charge_read(g, x, x.len);
    detail::charge_write(g, x, x.len);
}

/// dst = src, and in the same pass a group vote on the bits of src: true
/// when every element is +0.0 (a -0.0 or a NaN votes no). The vote is a
/// group reduction of one integer flag per element.
template <typename T>
bool copy_is_zero(xpu::group& g, dspan<const T> src, dspan<T> dst,
                  xpu::reduce_path path)
{
    detail::charge_read(g, src, src.len);
    detail::charge_write(g, dst, src.len);
    const index_type nonzero = g.reduce_sum<index_type>(
        src.len,
        [&](index_type i) -> index_type {
            const T v = src[i];
            dst[i] = v;
            return v != T{0} || std::signbit(v) ? 1 : 0;
        },
        path);
    return nonzero == 0;
}

/// y += alpha * x.
template <typename T>
void axpy(xpu::group& g, T alpha, dspan<const T> x, dspan<T> y)
{
    g.for_items(x.len, [&](index_type i) { y[i] += alpha * x[i]; });
    g.stats().flops += 2.0 * x.len;
    detail::charge_read(g, x, x.len);
    detail::charge_read(g, y, y.len);
    detail::charge_write(g, y, y.len);
}

/// y = alpha * x + beta * y.
template <typename T>
void axpby(xpu::group& g, T alpha, dspan<const T> x, T beta, dspan<T> y)
{
    g.for_items(x.len,
                [&](index_type i) { y[i] = alpha * x[i] + beta * y[i]; });
    g.stats().flops += 3.0 * x.len;
    detail::charge_read(g, x, x.len);
    detail::charge_read(g, y, y.len);
    detail::charge_write(g, y, y.len);
}

/// out = y + alpha * x, returning ||out|| from the same pass: the fused form
/// of copy(y, out); axpy(alpha, x, out); nrm2(out), with the same
/// arithmetic per element and the same reduction order. BiCGSTAB's
/// s = r - alpha v and r = s - omega t.
template <typename T>
T axpy_nrm2(xpu::group& g, T alpha, dspan<const T> x, dspan<const T> y,
            dspan<T> out, xpu::reduce_path path)
{
    detail::charge_read(g, x, x.len);
    detail::charge_read(g, y, x.len);
    detail::charge_write(g, out, x.len);
    g.stats().flops += 3.0 * x.len;  // axpy, then the squares
    const T sq = g.reduce_sum<T>(
        x.len,
        [&](index_type i) {
            const T v = y[i] + alpha * x[i];
            out[i] = v;
            return v * v;
        },
        path);
    using std::sqrt;
    return sqrt(sq);
}

/// p = r + beta * (p - omega * v) in one pass: the fused form of
/// axpy(-omega, v, p); axpby(1, r, beta, p) (1 * r is exact, so the
/// result is bit-identical). BiCGSTAB's search-direction update.
template <typename T>
void direction_update(xpu::group& g, dspan<const T> r, T beta, T omega,
                      dspan<const T> v, dspan<T> p)
{
    g.for_items(r.len, [&](index_type i) {
        const T q = p[i] + -omega * v[i];
        p[i] = r[i] + beta * q;
    });
    g.stats().flops += 4.0 * r.len;
    detail::charge_read(g, r, r.len);
    detail::charge_read(g, v, r.len);
    detail::charge_read(g, p, r.len);
    detail::charge_write(g, p, r.len);
}

/// y += a1 * x1 + a2 * x2 in one pass, rounded as (y + a1 x1) + a2 x2: the
/// fused form of axpy(a1, x1, y); axpy(a2, x2, y). BiCGSTAB's
/// x += alpha p_hat + omega s_hat.
template <typename T>
void axpy2(xpu::group& g, T a1, dspan<const T> x1, T a2, dspan<const T> x2,
           dspan<T> y)
{
    g.for_items(y.len, [&](index_type i) {
        const T v = y[i] + a1 * x1[i];
        y[i] = v + a2 * x2[i];
    });
    g.stats().flops += 4.0 * y.len;
    detail::charge_read(g, x1, y.len);
    detail::charge_read(g, x2, y.len);
    detail::charge_read(g, y, y.len);
    detail::charge_write(g, y, y.len);
}

/// out[i] = a[i] * b[i] — the scalar-Jacobi application. `a` may be held
/// in a reduced storage type S (fp32 inverse diagonals): the product
/// widens to T, and charge_read sizes the traffic by S automatically.
template <typename T, typename S>
void elementwise_mult(xpu::group& g, dspan<const S> a, dspan<const T> b,
                      dspan<T> out)
{
    g.for_items(a.len, [&](index_type i) {
        out[i] = static_cast<T>(a[i] * b[i]);
    });
    g.stats().flops += static_cast<double>(a.len);
    detail::charge_read(g, a, a.len);
    detail::charge_read(g, b, b.len);
    detail::charge_write(g, out, a.len);
}

/// Work-group dot product using the selected reduction strategy (§3.2).
template <typename T>
T dot(xpu::group& g, dspan<const T> x, dspan<const T> y,
      xpu::reduce_path path)
{
    detail::charge_read(g, x, x.len);
    detail::charge_read(g, y, y.len);
    g.stats().flops += static_cast<double>(x.len);  // multiplies
    return g.reduce_sum<T>(
        x.len, [&](index_type i) { return x[i] * y[i]; }, path);
}

/// Euclidean norm via the same reduction machinery.
template <typename T>
T nrm2(xpu::group& g, dspan<const T> x, xpu::reduce_path path)
{
    detail::charge_read(g, x, x.len);
    g.stats().flops += static_cast<double>(x.len);
    const T sq = g.reduce_sum<T>(
        x.len, [&](index_type i) { return x[i] * x[i]; }, path);
    using std::sqrt;
    return sqrt(sq);
}

}  // namespace batchlin::blas
