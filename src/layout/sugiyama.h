#ifndef STETHO_LAYOUT_SUGIYAMA_H_
#define STETHO_LAYOUT_SUGIYAMA_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "dot/graph.h"

namespace stetho::layout {

struct Point {
  double x = 0;
  double y = 0;
};

/// Tunables for the layered (Sugiyama-style) DAG layout.
struct LayoutOptions {
  double char_width = 7.0;      ///< label width estimate per character
  double node_height = 28.0;
  double min_node_width = 40.0;
  double max_node_width = 420.0;
  double layer_gap = 56.0;      ///< vertical distance between layers
  double node_gap = 24.0;       ///< horizontal gap between nodes in a layer
  double margin = 24.0;
  /// Maximum crossing-reduction sweeps; 0 disables ordering entirely
  /// (insertion order is kept). Sweeps stop early once a sweep no longer
  /// improves the crossing count, so this is a ceiling, not a fixed cost.
  int barycenter_sweeps = 4;
  /// Order by the median of neighbor positions (the GKNV median heuristic)
  /// instead of their mean.
  bool median = true;
  /// Adjacent-transpose refinement passes after each ordering sweep; each
  /// pass swaps neighboring nodes whenever the swap strictly reduces
  /// crossings. 0 disables.
  int transpose_passes = 2;
};

/// Placement of one node; (x, y) is the node center.
struct NodeLayout {
  int node = -1;   ///< index into Graph::nodes()
  int layer = 0;
  double x = 0;
  double y = 0;
  double width = 0;
  double height = 0;
};

/// Routed edge: polyline from the source's bottom port to the target's top
/// port.
struct EdgeLayout {
  int edge = -1;   ///< index into Graph::edges()
  std::vector<Point> points;
};

/// Complete layout of a graph.
struct GraphLayout {
  double width = 0;
  double height = 0;
  std::vector<NodeLayout> nodes;  ///< indexed like Graph::nodes()
  std::vector<EdgeLayout> edges;  ///< indexed like Graph::edges()

  /// Number of edge crossings in the final ordering (a layout quality
  /// metric; exposed for tests and the layout benchmark).
  int64_t crossings = 0;
};

/// Computes a layered layout of a DAG: longest-path layer assignment,
/// median/barycenter crossing reduction with adjacent-transpose refinement
/// and early-exit convergence, and sequential coordinate assignment with
/// per-layer centering. This is the GraphViz-dot substitute the Stethoscope
/// pipeline uses to place MAL plan graphs. Fails on cyclic graphs.
Result<GraphLayout> LayoutGraph(const dot::Graph& graph,
                                const LayoutOptions& options = {});

/// Counts edge crossings between consecutive layers for a given ordering
/// with an accumulation tree (binary indexed tree): O(E log E) instead of
/// the pairwise O(E^2) scan. Exact same count as CountCrossingsNaive.
int64_t CountCrossings(const dot::Graph& graph, const GraphLayout& layout);

/// The original pairwise crossing counter, kept as the oracle for property
/// tests against the BIT-based CountCrossings.
int64_t CountCrossingsNaive(const dot::Graph& graph,
                            const GraphLayout& layout);

}  // namespace stetho::layout

#endif  // STETHO_LAYOUT_SUGIYAMA_H_
