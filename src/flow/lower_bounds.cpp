#include "flow/lower_bounds.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"

namespace amf::flow {

LowerBoundFlow::LowerBoundFlow(int node_count, std::vector<BoundedEdge> edges,
                               NodeId source, NodeId sink, double eps)
    : edges_(std::move(edges)),
      super_source_(node_count),
      super_sink_(node_count + 1),
      eps_(eps) {
  AMF_REQUIRE(node_count >= 2, "need at least source and sink");
  AMF_REQUIRE(source >= 0 && source < node_count, "bad source");
  AMF_REQUIRE(sink >= 0 && sink < node_count, "bad sink");

  double scale = 1.0;
  for (const auto& e : edges_) {
    AMF_REQUIRE(e.from >= 0 && e.from < node_count, "bad edge source");
    AMF_REQUIRE(e.to >= 0 && e.to < node_count, "bad edge target");
    AMF_REQUIRE(e.lower >= 0.0 && e.lower <= e.upper + eps,
                "edge bounds must satisfy 0 <= lower <= upper");
    scale = std::max(scale, e.upper);
  }

  // Transformed network: original nodes + super source/sink. Capacities
  // that depend on the lower bounds are set by solve().
  net_ = FlowNetwork(node_count + 2);
  arc_.reserve(edges_.size());
  for (const auto& e : edges_) arc_.push_back(net_.add_edge(e.from, e.to, 0.0));
  // Circulation closure: allow return flow from sink to source.
  // 2x total scale is a safe "infinite" capacity for this network.
  double big = 0.0;
  for (const auto& e : edges_) big += e.upper;
  big = std::max(big, scale) * 2.0 + 1.0;
  net_.add_edge(sink, source, big);

  for (NodeId v = 0; v < node_count; ++v) {
    from_source_.push_back(net_.add_edge(super_source_, v, 0.0));
    to_sink_.push_back(net_.add_edge(v, super_sink_, 0.0));
  }
  excess_.resize(static_cast<std::size_t>(node_count));
}

void LowerBoundFlow::set_lower(std::size_t i, double lower) {
  AMF_REQUIRE(i < edges_.size(), "bad edge index");
  AMF_REQUIRE(lower >= 0.0 && lower <= edges_[i].upper + eps_,
              "edge bounds must satisfy 0 <= lower <= upper");
  edges_[i].lower = lower;
}

bool LowerBoundFlow::solve() {
  // Excesses are summed in edge order, as a fresh build would, so the
  // super arcs get the same capacities to the last bit.
  std::fill(excess_.begin(), excess_.end(), 0.0);
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    const auto& e = edges_[i];
    net_.set_capacity(arc_[i], std::max(0.0, e.upper - e.lower));
    excess_[static_cast<std::size_t>(e.to)] += e.lower;
    excess_[static_cast<std::size_t>(e.from)] -= e.lower;
  }

  double required = 0.0;
  for (std::size_t v = 0; v < excess_.size(); ++v) {
    const double ex = excess_[v];
    net_.set_capacity(from_source_[v], ex > 0.0 ? ex : 0.0);
    net_.set_capacity(to_sink_[v], ex < 0.0 ? -ex : 0.0);
    if (ex > 0.0) required += ex;
  }

  net_.reset_flow();
  double pushed = net_.max_flow(super_source_, super_sink_, eps_);
  return !(pushed < required - eps_ * std::max(1.0, required));
}

void LowerBoundFlow::flows(std::vector<double>& out) const {
  out.resize(edges_.size());
  for (std::size_t i = 0; i < edges_.size(); ++i)
    out[i] = edges_[i].lower + net_.flow(arc_[i]);
}

std::optional<std::vector<double>> feasible_flow_with_lower_bounds(
    int node_count, const std::vector<BoundedEdge>& edges, NodeId source,
    NodeId sink, double eps) {
  LowerBoundFlow problem(node_count, edges, source, sink, eps);
  if (!problem.solve()) return std::nullopt;
  std::vector<double> result;
  problem.flows(result);
  return result;
}

}  // namespace amf::flow
