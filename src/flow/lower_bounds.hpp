// lower_bounds.hpp — feasible s-t flow with per-edge lower bounds.
//
// Used by the JCT add-on: realizing a fixed AMF aggregate vector while
// forcing each job's per-site rate above a completion-time target is an
// s-t flow problem with exact source-arc values (lower == upper) and lower
// bounds on job→site arcs. Solved with the classic excess transformation:
// route mandatory flow through a super source/sink and check saturation.
//
// The add-on probes one topology ~50 times with only the lower bounds
// changing, so the transformed network is built once (LowerBoundFlow) and
// re-solved in place; the free function is a build-and-solve wrapper.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "flow/network.hpp"

namespace amf::flow {

/// A directed edge with a flow interval [lower, upper].
struct BoundedEdge {
  NodeId from = 0;
  NodeId to = 0;
  double lower = 0.0;
  double upper = 0.0;
};

/// The transformed network of a lower-bounded s-t flow problem, built once
/// for a fixed topology and fixed upper bounds and re-solved in place as
/// the lower bounds change.
///
/// The s-t problem is reduced to a circulation by adding a sink→source arc
/// of unbounded capacity; flow conservation then holds at s and t too.
/// Every node carries one super-source and one super-sink arc, zero when
/// its excess does not use it. Dinic never traverses a zero-residual arc,
/// so a re-solve visits the live arcs in exactly the order a freshly built
/// network would and returns bit-identical flows.
class LowerBoundFlow {
 public:
  /// `edges` fixes the topology and upper bounds; their lower bounds are
  /// the initial ones. `eps` bounds the saturation tolerance.
  LowerBoundFlow(int node_count, std::vector<BoundedEdge> edges,
                 NodeId source, NodeId sink,
                 double eps = FlowNetwork::kDefaultEps);

  /// Sets edge `i`'s lower bound (0 <= lower <= upper); takes effect at the
  /// next solve().
  void set_lower(std::size_t i, double lower);

  /// Looks for a flow satisfying every edge's current [lower, upper]
  /// interval; true when one exists. Nothing of an earlier solve, feasible
  /// or not, carries over.
  bool solve();

  /// Per-edge flow values (aligned with the edges) of the last feasible
  /// solve(), written into `out`.
  void flows(std::vector<double>& out) const;

 private:
  std::vector<BoundedEdge> edges_;
  NodeId super_source_;
  NodeId super_sink_;
  double eps_;
  FlowNetwork net_;
  std::vector<EdgeId> arc_;          // per edge
  std::vector<EdgeId> from_source_;  // per node: super source → node
  std::vector<EdgeId> to_sink_;      // per node: node → super sink
  std::vector<double> excess_;       // per node, scratch of solve()
};

/// Finds an s-t flow satisfying every edge's [lower, upper] interval, if
/// one exists. Returns the per-edge flow values (aligned with `edges`), or
/// nullopt when infeasible. One build and one solve of LowerBoundFlow.
std::optional<std::vector<double>> feasible_flow_with_lower_bounds(
    int node_count, const std::vector<BoundedEdge>& edges, NodeId source,
    NodeId sink, double eps = FlowNetwork::kDefaultEps);

}  // namespace amf::flow
