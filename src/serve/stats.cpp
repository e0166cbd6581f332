// JSON dump of a service-stats snapshot. Hand-rolled emission (the repo
// carries no JSON dependency): every value is an integer, a double, or a
// device-name string the registry produced from a fixed alphabet, so no
// escaping is needed beyond quoting.
#include "serve/stats.hpp"

#include <cinttypes>
#include <cstdio>

namespace batchlin::serve {

namespace {

void emit_u64(std::string& out, const char* key, std::uint64_t value,
              bool comma = true)
{
    char buf[128];
    std::snprintf(buf, sizeof(buf), "\"%s\": %" PRIu64 "%s", key, value,
                  comma ? ", " : "");
    out += buf;
}

void emit_double(std::string& out, const char* key, double value,
                 bool comma = true)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf), "\"%s\": %.9g%s", key, value,
                  comma ? ", " : "");
    out += buf;
}

void emit_bool(std::string& out, const char* key, bool value,
               bool comma = true)
{
    out += '"';
    out += key;
    out += value ? "\": true" : "\": false";
    if (comma) {
        out += ", ";
    }
}

void emit_string(std::string& out, const char* key, const std::string& value,
                 bool comma = true)
{
    out += '"';
    out += key;
    out += "\": \"";
    out += value;
    out += '"';
    if (comma) {
        out += ", ";
    }
}

}  // namespace

std::string service_stats::to_json() const
{
    std::string out;
    out.reserve(2048 + shards.size() * 512);
    out += "{";
    emit_u64(out, "submitted_requests", submitted_requests);
    emit_u64(out, "submitted_systems", submitted_systems);
    emit_u64(out, "completed_requests", completed_requests);
    emit_u64(out, "completed_systems", completed_systems);
    emit_u64(out, "rejected_requests", rejected_requests);
    emit_u64(out, "expired_requests", expired_requests);
    emit_u64(out, "failed_requests", failed_requests);
    emit_u64(out, "batches_launched", batches_launched);
    emit_u64(out, "launch_faults", launch_faults);
    emit_u64(out, "launch_retries", launch_retries);
    emit_u64(out, "degraded_launches", degraded_launches);
    emit_u64(out, "recovered_requests", recovered_requests);
    emit_u64(out, "breaker_trips", breaker_trips);
    emit_bool(out, "breaker_active", breaker_active);
    emit_u64(out, "launches_recorded", launches_recorded);
    emit_u64(out, "replays", replays);
    emit_u64(out, "rebind_only", rebind_only);
    emit_u64(out, "refined_batches", refined_batches);
    emit_u64(out, "refine_sweeps", refine_sweeps);
    emit_u64(out, "refine_fallbacks", refine_fallbacks);
    emit_u64(out, "window_holds", window_holds);
    emit_u64(out, "window_skips", window_skips);
    emit_double(out, "window_held_us", window_held_us);
    emit_double(out, "window_overslept_us", window_overslept_us);
    emit_u64(out, "evictions", evictions);
    emit_u64(out, "watchdog_evictions", watchdog_evictions);
    emit_u64(out, "migrations", migrations);
    emit_u64(out, "migrated_systems", migrated_systems);
    emit_u64(out, "probes", probes);
    emit_u64(out, "probe_successes", probe_successes);
    emit_u64(out, "shed_requests", shed_requests);
    emit_u64(out, "queue_depth_requests", queue_depth_requests);
    emit_u64(out, "queue_depth_systems", queue_depth_systems);
    emit_u64(out, "steals", steals);
    emit_double(out, "p50_latency_seconds", p50_latency_seconds);
    emit_double(out, "p99_latency_seconds", p99_latency_seconds);
    emit_double(out, "solves_per_sec", solves_per_sec);
    emit_double(out, "mean_batch_size", mean_batch_size);
    emit_double(out, "uptime_seconds", uptime_seconds);
    out += "\"shards\": [";
    for (std::size_t i = 0; i < shards.size(); ++i) {
        const shard_stats& s = shards[i];
        if (i != 0) {
            out += ", ";
        }
        out += "{";
        emit_u64(out, "shard", static_cast<std::uint64_t>(s.shard));
        emit_string(out, "device", s.device);
        emit_string(out, "state", s.state);
        emit_u64(out, "routed_requests", s.routed_requests);
        emit_u64(out, "routed_systems", s.routed_systems);
        emit_u64(out, "completed_systems", s.completed_systems);
        emit_u64(out, "batches_launched", s.batches_launched);
        emit_u64(out, "steals", s.steals);
        emit_u64(out, "stolen_systems", s.stolen_systems);
        emit_u64(out, "launch_faults", s.launch_faults);
        emit_u64(out, "breaker_trips", s.breaker_trips);
        emit_bool(out, "breaker_active", s.breaker_active);
        emit_u64(out, "evictions", s.evictions);
        emit_u64(out, "probes", s.probes);
        emit_u64(out, "probe_successes", s.probe_successes);
        emit_u64(out, "migrated_requests", s.migrated_requests);
        emit_u64(out, "migrated_systems", s.migrated_systems);
        emit_u64(out, "heartbeat", s.heartbeat);
        emit_u64(out, "queue_depth_systems", s.queue_depth_systems);
        emit_double(out, "modeled_busy_seconds", s.modeled_busy_seconds);
        emit_double(out, "solves_per_sec", s.solves_per_sec, false);
        out += "}";
    }
    out += "]}";
    return out;
}

}  // namespace batchlin::serve
