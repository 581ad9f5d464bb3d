// Query-level knobs for the sketch-accelerated candidate generation
// layer (sketch/sketch.h). Kept dependency-free so core/similarity.h can
// embed it in the query descriptors without pulling the sketch headers
// into every translation unit.

#ifndef STPS_SKETCH_OPTIONS_H_
#define STPS_SKETCH_OPTIONS_H_

#include <cstdint>

namespace stps {

/// Per-query opt-in for sketch-based candidate generation. Off by
/// default; when enabled with an explicit algorithm, RunSTPSJoin /
/// RunTopKSTPSJoin build per-user sketches for the call, generate
/// candidate user pairs from them and feed them into the exact
/// verification kernels —
/// results are bit-identical to the exact path, sketches only skip work
/// (the PR 2 signature-gate contract, lifted from objects to users).
struct SketchOptions {
  bool enabled = false;
  /// Size of the count-min heavy-hitters list that seeds the top-k
  /// verification order (highest estimated co-occurrence first, so the
  /// result queue's threshold rises early and the exact kernels' Lemma 1
  /// budget prunes the tail). Order never affects results.
  uint32_t heavy_capacity = 1024;
};

}  // namespace stps

#endif  // STPS_SKETCH_OPTIONS_H_
