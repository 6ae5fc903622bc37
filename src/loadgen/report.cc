#include "loadgen/report.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>

namespace topl {
namespace loadgen {

namespace {

OpKindSummary Summarize(const LoadRecorder::Slot& slot) {
  OpKindSummary out;
  out.count = slot.latency.count;
  out.failed = slot.failed;
  out.truncated = slot.truncated;
  out.p50_ms = slot.latency.PercentileSeconds(0.50) * 1e3;
  out.p99_ms = slot.latency.PercentileSeconds(0.99) * 1e3;
  out.p999_ms = slot.latency.PercentileSeconds(0.999) * 1e3;
  out.max_ms = slot.latency.MaxSeconds() * 1e3;
  out.mean_ms = slot.latency.MeanSeconds() * 1e3;
  out.mean_service_ms = slot.service.MeanSeconds() * 1e3;
  return out;
}

void AppendF(std::string* out, const char* format, ...) {
  char buffer[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buffer, sizeof(buffer), format, args);
  va_end(args);
  *out += buffer;
}

void AppendKindJson(std::string* out, const char* name,
                    const OpKindSummary& s, const char* suffix) {
  AppendF(out,
          "  \"%s\": {\"count\": %" PRIu64 ", \"failed\": %" PRIu64
          ", \"truncated\": %" PRIu64
          ", \"p50_ms\": %.4f, \"p99_ms\": %.4f, \"p999_ms\": %.4f, "
          "\"max_ms\": %.4f, \"mean_ms\": %.4f, \"mean_service_ms\": %.4f}%s\n",
          name, s.count, s.failed, s.truncated, s.p50_ms, s.p99_ms, s.p999_ms,
          s.max_ms, s.mean_ms, s.mean_service_ms, suffix);
}

}  // namespace

LoadReport BuildReport(std::span<const LoadRecorder> recorders,
                       const std::string& mix, bool open_loop,
                       double target_qps, double wall_seconds) {
  LoadRecorder merged;
  for (const LoadRecorder& recorder : recorders) merged.Merge(recorder);

  LoadReport report;
  report.mix = mix;
  report.open_loop = open_loop;
  report.target_qps = target_qps;
  report.wall_seconds = wall_seconds;

  LoadRecorder::Slot all;
  for (std::size_t k = 0; k < kNumOpKinds; ++k) {
    const LoadRecorder::Slot& slot = merged.per_kind[k];
    report.per_kind[k] = Summarize(slot);
    report.ops_total += slot.latency.count;
    report.failed += slot.failed;
    report.truncated += slot.truncated;
    report.shed += slot.shed;
    report.degraded += slot.degraded;
    report.retried += slot.retried;
    all.latency.Merge(slot.latency);
    all.service.Merge(slot.service);
    all.failed += slot.failed;
    all.truncated += slot.truncated;
  }
  report.overall = Summarize(all);
  if (wall_seconds > 0.0) {
    report.achieved_qps =
        static_cast<double>(report.ops_total) / wall_seconds;
  }
  report.ops_per_s = report.achieved_qps;
  return report;
}

std::vector<std::string> LoadReport::CheckSlo(const SloThresholds& slo) const {
  std::vector<std::string> violations;
  std::string msg;
  if (failed > slo.max_failed) {
    msg.clear();
    AppendF(&msg, "failed operations: %" PRIu64 " > allowed %" PRIu64, failed,
            slo.max_failed);
    violations.push_back(msg);
  }
  if (slo.min_ops_per_s > 0.0 && ops_per_s < slo.min_ops_per_s) {
    msg.clear();
    AppendF(&msg, "sustained throughput: %.1f ops/s < SLO %.1f", ops_per_s,
            slo.min_ops_per_s);
    violations.push_back(msg);
  }
  if (slo.max_p99_ms > 0.0 && overall.p99_ms > slo.max_p99_ms) {
    msg.clear();
    AppendF(&msg, "p99 latency: %.2fms > SLO %.2fms", overall.p99_ms,
            slo.max_p99_ms);
    violations.push_back(msg);
  }
  if (slo.max_p999_ms > 0.0 && overall.p999_ms > slo.max_p999_ms) {
    msg.clear();
    AppendF(&msg, "p999 latency: %.2fms > SLO %.2fms", overall.p999_ms,
            slo.max_p999_ms);
    violations.push_back(msg);
  }
  return violations;
}

std::string LoadReport::ToString() const {
  std::string out;
  AppendF(&out,
          "mix=%s loop=%s target=%.0f qps achieved=%.1f ops/s "
          "(%.2fs wall, %" PRIu64 " ops, %" PRIu64 " failed, %" PRIu64
          " truncated, %" PRIu64 " updates, epoch %" PRIu64 ")\n",
          mix.c_str(), open_loop ? "open" : "closed", target_qps, achieved_qps,
          wall_seconds, ops_total, failed, truncated, updates_applied,
          snapshot_epoch);
  if (shed + degraded + retried > 0) {
    AppendF(&out,
            "overload: %" PRIu64 " shed, %" PRIu64 " degraded, %" PRIu64
            " retried\n",
            shed, degraded, retried);
  }
  if (cache_hits + cache_misses + cache_coalesced > 0) {
    AppendF(&out,
            "cache: %.1f%% hit rate (%" PRIu64 " hits, %" PRIu64
            " misses, %" PRIu64 " coalesced)\n",
            100.0 * hit_rate, cache_hits, cache_misses, cache_coalesced);
  }
  AppendF(&out, "%-12s %9s %9s %9s %9s %9s %9s %9s\n", "kind", "count",
          "p50(ms)", "p99(ms)", "p999(ms)", "max(ms)", "mean(ms)", "svc(ms)");
  for (std::size_t k = 0; k < kNumOpKinds; ++k) {
    const OpKindSummary& s = per_kind[k];
    if (s.count == 0) continue;
    AppendF(&out, "%-12s %9" PRIu64 " %9.3f %9.3f %9.3f %9.3f %9.3f %9.3f\n",
            OpKindName(static_cast<OpKind>(k)), s.count, s.p50_ms, s.p99_ms,
            s.p999_ms, s.max_ms, s.mean_ms, s.mean_service_ms);
  }
  const OpKindSummary& s = overall;
  AppendF(&out, "%-12s %9" PRIu64 " %9.3f %9.3f %9.3f %9.3f %9.3f %9.3f\n",
          "overall", s.count, s.p50_ms, s.p99_ms, s.p999_ms, s.max_ms,
          s.mean_ms, s.mean_service_ms);
  return out;
}

std::string LoadReport::ToJson() const {
  std::string out = "{\n";
  AppendF(&out, "  \"benchmark\": \"serve\",\n");
  AppendF(&out, "  \"mix\": \"%s\",\n", mix.c_str());
  AppendF(&out, "  \"loop\": \"%s\",\n", open_loop ? "open" : "closed");
  AppendF(&out, "  \"target_qps\": %.3f,\n", target_qps);
  AppendF(&out, "  \"achieved_qps\": %.3f,\n", achieved_qps);
  AppendF(&out, "  \"ops_per_s\": %.3f,\n", ops_per_s);
  AppendF(&out, "  \"wall_seconds\": %.4f,\n", wall_seconds);
  AppendF(&out, "  \"ops_total\": %" PRIu64 ",\n", ops_total);
  AppendF(&out, "  \"failed\": %" PRIu64 ",\n", failed);
  AppendF(&out, "  \"truncated\": %" PRIu64 ",\n", truncated);
  AppendF(&out, "  \"shed\": %" PRIu64 ",\n", shed);
  AppendF(&out, "  \"degraded\": %" PRIu64 ",\n", degraded);
  AppendF(&out, "  \"retried\": %" PRIu64 ",\n", retried);
  AppendF(&out, "  \"updates_applied\": %" PRIu64 ",\n", updates_applied);
  AppendF(&out, "  \"snapshot_epoch\": %" PRIu64 ",\n", snapshot_epoch);
  AppendF(&out, "  \"stream_digest\": \"%016" PRIx64 "\",\n", stream_digest);
  AppendF(&out, "  \"cache_hits\": %" PRIu64 ",\n", cache_hits);
  AppendF(&out, "  \"cache_misses\": %" PRIu64 ",\n", cache_misses);
  AppendF(&out, "  \"cache_coalesced\": %" PRIu64 ",\n", cache_coalesced);
  AppendF(&out, "  \"hit_rate\": %.4f,\n", hit_rate);
  for (std::size_t k = 0; k < kNumOpKinds; ++k) {
    AppendKindJson(&out, OpKindName(static_cast<OpKind>(k)), per_kind[k], ",");
  }
  AppendKindJson(&out, "overall", overall, "");
  out += "}\n";
  return out;
}

}  // namespace loadgen
}  // namespace topl
