//===- Layers.h - per-layer metrics of a traced run -------------*- C++ -*-===//
//
// Part of the BARRACUDA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reduces a traced run's spans and counts to the per-layer metrics of
/// the final line. Every workload prints every per-layer metric; a layer
/// a workload does not reach reads 0 (the serve layer outside the serve
/// workloads), and the human-readable table names the layers measured.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include "Bench.h"
#include "Spans.h"

#include <vector>

namespace perfbench {

/// Samples gathered by a traced run. "Per unit" vectors hold one value
/// per unit of work (a Table 1 pass, one relaunch launch, one serve
/// class round); "per launch" vectors one value per launch.
struct LayerSamples {
  /// Roots of the spans holding module loads (parse, instrument).
  std::vector<uint32_t> LoadRoots;
  /// Roots of the per-unit spans.
  std::vector<uint32_t> UnitRoots;
  /// The per-launch "launch" spans (their self time is the part of the
  /// launch no layer span covers).
  std::vector<uint32_t> LaunchRoots;

  // Per unit (counts from the composed path or Session::report()).
  std::vector<double> LoggedInsns, WarpInsns, Records, QueueFullSpins;
  std::vector<double> SyncRecords, ShardMarkers, TicketStalls,
      ProducerStalls, ShadowBytes;
  std::vector<double> SessionLoadMs;
  // Per launch.
  std::vector<double> WatermarkWaitUs, SessionLaunchUs, ReportBuildUs,
      ReportJsonUs;
  // The serve workloads only.
  std::vector<double> RttSmallUs, RttHeavyMs, CodecUs;
  double ServeSelfUs = 0;
  double Overloaded = 0;
  /// Traced against untraced wall time of the same unit, in percent.
  double TracingOverheadPct = 0;
};

/// Emits every per-layer metric into \p R and prints the self-time
/// table; \p Spans holds the run's spans.
void emitLayerMetrics(const SpanRecorder &Spans, const LayerSamples &L,
                      Result &R);

/// Median of \p V (0 when empty).
double medianOf(const std::vector<double> &V);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H
