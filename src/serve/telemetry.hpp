// Renderers for the live admin endpoint (serve/admin.hpp): Prometheus text
// exposition at /metrics and the si-series-v1 JSON time-series at /series.
//
// Kept separate from the socket plumbing so tests can lint the exposition
// and round-trip the JSON without opening a port. Everything here reads
// snapshot copies — the renderers never touch the data plane.
//
// Exposition notes: counters end in _total; the latency families are
// Prometheus summaries (quantile-labelled gauge lines plus _sum/_count);
// the abort taxonomy is one counter family labelled by cause, using the
// same words as `si_trace -summary` so live scrapes and offline traces
// diff cleanly. scripts/check_metrics.py lints exactly this grammar.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>

#include "obs/metrics.hpp"
#include "obs/taxonomy.hpp"
#include "obs/timeseries.hpp"
#include "serve/aimd.hpp"
#include "serve/reactor.hpp"
#include "serve/service.hpp"
#include "util/json.hpp"

namespace si::serve {

/// Everything the renderers report, gathered by the caller (tools/si_serve
/// owns the objects; tests stub them). Null pointers drop the section.
struct TelemetrySources {
  const si::obs::MetricsSnapshot* snap = nullptr;  ///< cumulative, merged
  ServiceCounters counters{};
  const AimdState* aimd = nullptr;       ///< null: AIMD disabled
  const si::obs::TimeSeries* series = nullptr;  ///< null: telemetry disabled
  const ReactorStats* reactor = nullptr;        ///< null: text front end
  const DurabilityStats* log = nullptr;         ///< null: durability off
  std::string backend;
  int shards = 0;
  double uptime_s = 0.0;
};

namespace detail {

inline void counter(std::ostream& os, const char* name, const char* help,
                    std::uint64_t v) {
  os << "# HELP " << name << ' ' << help << '\n';
  os << "# TYPE " << name << " counter\n";
  os << name << ' ' << v << '\n';
}

inline void gauge(std::ostream& os, const char* name, const char* help,
                  double v) {
  os << "# HELP " << name << ' ' << help << '\n';
  os << "# TYPE " << name << " gauge\n";
  os << name << ' ' << v << '\n';
}

inline void summary(std::ostream& os, const char* name, const char* help,
                    const si::util::Histogram& h) {
  os << "# HELP " << name << ' ' << help << '\n';
  os << "# TYPE " << name << " summary\n";
  os << name << "{quantile=\"0.5\"} " << h.quantile(0.50) << '\n';
  os << name << "{quantile=\"0.99\"} " << h.quantile(0.99) << '\n';
  os << name << "{quantile=\"0.999\"} " << h.quantile(0.999) << '\n';
  os << name << "_sum " << static_cast<std::uint64_t>(h.mean() *
                                                      static_cast<double>(
                                                          h.count()))
     << '\n';
  os << name << "_count " << h.count() << '\n';
}

}  // namespace detail

/// Prometheus text exposition (version 0.0.4) over the cumulative state.
inline std::string render_prometheus(const TelemetrySources& src) {
  std::ostringstream os;
  detail::gauge(os, "si_uptime_seconds", "Seconds since the service started.",
                src.uptime_s);
  detail::gauge(os, "si_shards", "Shard worker threads.",
                static_cast<double>(src.shards));

  detail::counter(os, "si_requests_accepted_total",
                  "Requests admitted into a shard queue.",
                  src.counters.accepted);
  detail::counter(os, "si_requests_completed_total",
                  "Requests executed to completion.", src.counters.completed);
  detail::counter(os, "si_requests_failed_total",
                  "Requests completed with a failure status.",
                  src.counters.failed);
  os << "# HELP si_requests_rejected_total Requests refused at admission.\n";
  os << "# TYPE si_requests_rejected_total counter\n";
  os << "si_requests_rejected_total{reason=\"busy\"} "
     << src.counters.rejected_busy << '\n';
  os << "si_requests_rejected_total{reason=\"full\"} "
     << src.counters.rejected_full << '\n';
  os << "si_requests_rejected_total{reason=\"stopped\"} "
     << src.counters.rejected_stopped << '\n';

  if (src.snap != nullptr) {
    const si::obs::MetricsSnapshot& s = *src.snap;
    detail::counter(os, "si_tx_commits_total",
                    "Backend transactions committed.", s.commit_latency.count());
    os << "# HELP si_tx_aborts_total Backend abort/fall-back taxonomy "
          "(same labels as si_trace -summary).\n";
    os << "# TYPE si_tx_aborts_total counter\n";
    for (int i = 0; i < si::obs::kTaxonomyCounters; ++i) {
      const auto c = static_cast<si::obs::TaxonomyCounter>(i);
      os << "si_tx_aborts_total{cause=\"" << si::obs::metric_name(c) << "\"} "
         << s.taxonomy.count(c) << '\n';
    }
    detail::summary(os, "si_request_latency_ns",
                    "Request enqueue-to-complete latency.", s.request_latency);
    detail::summary(os, "si_safety_wait_ns",
                    "SI-HTM quiescence (safety wait) duration.", s.safety_wait);
    detail::summary(os, "si_sgl_hold_ns", "SGL fall-back hold time.",
                    s.sgl_hold);
    detail::summary(os, "si_queue_depth", "Shard queue depth at dequeue.",
                    s.queue_depth);
  }

  if (src.aimd != nullptr) {
    detail::gauge(os, "si_admission_watermark",
                  "Current AIMD admission watermark (requests per shard).",
                  static_cast<double>(src.aimd->watermark));
    detail::counter(os, "si_aimd_epochs_total", "AIMD controller ticks.",
                    src.aimd->epochs);
    detail::counter(os, "si_aimd_raises_total", "AIMD additive raises.",
                    src.aimd->raises);
    detail::counter(os, "si_aimd_cuts_total", "AIMD multiplicative cuts.",
                    src.aimd->cuts);
  }

  if (src.series != nullptr) {
    detail::counter(os, "si_series_epochs_total",
                    "Epoch records pushed into the time-series ring.",
                    src.series->epochs());
    detail::counter(os, "si_series_completed_total",
                    "Sum of per-epoch completed deltas (reconciles with "
                    "si_requests_completed_total after a drain).",
                    src.series->completed_total());
  }

  if (src.reactor != nullptr) {
    detail::counter(os, "si_reactor_conns_accepted_total",
                    "Connections accepted by the reactor pool.",
                    src.reactor->conns_accepted);
    detail::counter(os, "si_reactor_flushes_total",
                    "writev flushes issued by the reactors.",
                    src.reactor->flushes);
    detail::counter(os, "si_reactor_bytes_out_total",
                    "Bytes written by the reactors.", src.reactor->bytes_out);
    detail::counter(os, "si_reactor_parse_errors_total",
                    "Frames dropped as unparseable.",
                    src.reactor->parse_errors);
    detail::counter(os, "si_reactor_inline_reads_total",
                    "Point reads served on a reactor's own tid, with no "
                    "shard hand-off.",
                    src.reactor->inline_reads);
    detail::counter(os, "si_reactor_inline_updates_total",
                    "Unlogged updates served on a reactor on their shard's "
                    "tid while no shard worker was executing.",
                    src.reactor->inline_updates);
  }

  // Durability plane (DESIGN.md §14): rendered only when the WAL is on so
  // cache-mode scrapes stay unchanged.
  if (src.log != nullptr) {
    detail::counter(os, "si_log_appends_total",
                    "WAL records appended across all shard logs.",
                    src.log->appends);
    detail::counter(os, "si_log_bytes_total",
                    "WAL record bytes appended across all shard logs.",
                    src.log->bytes);
    detail::counter(os, "si_log_flushes_total",
                    "WAL flushes that wrote data (one per group commit).",
                    src.log->flushes);
    detail::counter(os, "si_log_fsyncs_total",
                    "fdatasync calls issued by the shard workers' flushes.",
                    src.log->fsyncs);
    detail::counter(os, "si_log_io_errors_total",
                    "WAL write/fsync failures (durable LSN stalls).",
                    src.log->io_errors);
    detail::gauge(os, "si_log_durable_lsn",
                  "Sum of per-shard durable LSNs.",
                  static_cast<double>(src.log->durable_lsn));
    detail::gauge(os, "si_log_acks_held",
                  "Acks the last flush left held (a failed log's stuck acks).",
                  static_cast<double>(src.log->acks_held));
    if (src.snap != nullptr) {
      detail::summary(os, "si_durable_ack_latency_ns",
                      "Request enqueue to durable-ack release.",
                      src.snap->durable_ack);
    }
  }
  return os.str();
}

/// si-series-v1: cumulative counters plus the retained epoch ring. The
/// series_totals block carries the reconciliation figures (they cover
/// *all* epochs, including ones the ring has dropped).
inline std::string render_series_json(const TelemetrySources& src) {
  std::ostringstream os;
  si::util::JsonWriter w(os);
  w.begin_object();
  w.key("schema");
  w.value("si-series-v1");
  w.key("backend");
  w.value(src.backend);
  w.key("shards");
  w.value(src.shards);
  w.key("uptime_s");
  w.value(src.uptime_s);

  w.key("counters");
  w.begin_object();
  w.key("accepted");
  w.value(src.counters.accepted);
  w.key("completed");
  w.value(src.counters.completed);
  w.key("failed");
  w.value(src.counters.failed);
  w.key("rejected_busy");
  w.value(src.counters.rejected_busy);
  w.key("rejected_full");
  w.value(src.counters.rejected_full);
  w.key("rejected_stopped");
  w.value(src.counters.rejected_stopped);
  w.end_object();

  if (src.aimd != nullptr) {
    w.key("aimd");
    w.begin_object();
    w.key("watermark");
    w.value(static_cast<std::uint64_t>(src.aimd->watermark));
    w.key("epochs");
    w.value(src.aimd->epochs);
    w.key("raises");
    w.value(src.aimd->raises);
    w.key("cuts");
    w.value(src.aimd->cuts);
    w.key("last_p99_ns");
    w.value(src.aimd->last_p99_ns);
    w.end_object();
  }

  if (src.reactor != nullptr) {
    w.key("reactor");
    w.begin_object();
    w.key("conns_accepted");
    w.value(src.reactor->conns_accepted);
    w.key("requests");
    w.value(src.reactor->requests);
    w.key("flushes");
    w.value(src.reactor->flushes);
    w.key("bytes_in");
    w.value(src.reactor->bytes_in);
    w.key("bytes_out");
    w.value(src.reactor->bytes_out);
    w.key("inline_reads");
    w.value(src.reactor->inline_reads);
    w.key("inline_updates");
    w.value(src.reactor->inline_updates);
    w.end_object();
  }

  if (src.log != nullptr) {
    w.key("log");
    w.begin_object();
    w.key("appends");
    w.value(src.log->appends);
    w.key("bytes");
    w.value(src.log->bytes);
    w.key("flushes");
    w.value(src.log->flushes);
    w.key("fsyncs");
    w.value(src.log->fsyncs);
    w.key("io_errors");
    w.value(src.log->io_errors);
    w.key("appended_lsn");
    w.value(src.log->appended_lsn);
    w.key("durable_lsn");
    w.value(src.log->durable_lsn);
    w.key("acks_held");
    w.value(src.log->acks_held);
    w.end_object();
  }

  if (src.series != nullptr) {
    w.key("series_totals");
    w.begin_object();
    w.key("epochs");
    w.value(src.series->epochs());
    w.key("completed");
    w.value(src.series->completed_total());
    w.end_object();

    w.key("epochs");
    w.begin_array();
    for (const si::obs::EpochRecord& r : src.series->dump()) {
      w.begin_object();
      w.key("seq");
      w.value(r.seq);
      w.key("t_s");
      w.value(r.t_s);
      w.key("dt_s");
      w.value(r.dt_s);
      w.key("completed");
      w.value(r.completed);
      w.key("accepted");
      w.value(r.accepted);
      w.key("rejected");
      w.value(r.rejected);
      w.key("failed");
      w.value(r.failed);
      w.key("goodput");
      w.value(r.goodput);
      w.key("req_p50_ns");
      w.value(r.req_p50_ns);
      w.key("req_p99_ns");
      w.value(r.req_p99_ns);
      w.key("req_p999_ns");
      w.value(r.req_p999_ns);
      w.key("queue_depth_p99");
      w.value(r.queue_depth_p99);
      w.key("commits");
      w.value(r.commits);
      w.key("aborts");
      w.begin_object();
      for (int i = 0; i < si::obs::kTaxonomyCounters; ++i) {
        const auto c = static_cast<si::obs::TaxonomyCounter>(i);
        w.key(si::obs::metric_name(c));
        w.value(r.aborts[i]);
      }
      w.end_object();
      w.key("watermark");
      w.value(r.watermark);
      w.key("conns");
      w.value(r.conns);
      w.key("flushes");
      w.value(r.flushes);
      w.key("bytes_out");
      w.value(r.bytes_out);
      // Log-plane columns ride in every epoch (zeros with durability off)
      // so the si-series-v1 schema stays mode-independent.
      w.key("log_appends");
      w.value(r.log_appends);
      w.key("log_bytes");
      w.value(r.log_bytes);
      w.key("log_fsyncs");
      w.value(r.log_fsyncs);
      w.key("durable_lsn");
      w.value(r.durable_lsn);
      w.end_object();
    }
    w.end_array();
  }
  w.end_object();
  return os.str();
}

}  // namespace si::serve
