#include "layout/layout_cache.h"

#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>

#include "obs/metrics.h"

namespace stetho::layout {
namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

void HashBytes(uint64_t* h, const void* data, size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    *h ^= p[i];
    *h *= kFnvPrime;
  }
}

void HashString(uint64_t* h, const std::string& s) {
  uint64_t len = s.size();
  HashBytes(h, &len, sizeof(len));  // length-prefixed: "ab","c" != "a","bc"
  HashBytes(h, s.data(), s.size());
}

void HashDouble(uint64_t* h, double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  HashBytes(h, &bits, sizeof(bits));
}

void HashInt(uint64_t* h, int64_t v) { HashBytes(h, &v, sizeof(v)); }

size_t DefaultCapacity() {
  const char* env = std::getenv("STETHO_LAYOUT_CACHE");
  if (env == nullptr || *env == '\0') return LayoutCache::kDefaultCapacity;
  char* end = nullptr;
  long v = std::strtol(env, &end, 10);
  if (end == env || v < 0) return LayoutCache::kDefaultCapacity;
  return static_cast<size_t>(v);
}

obs::Counter* HitCounter() {
  static obs::Counter* c = obs::Registry::Default()->GetOrCreateCounter(
      "stetho_layout_cache_hits_total",
      "Layout cache lookups served from cached geometry");
  return c;
}

obs::Counter* MissCounter() {
  static obs::Counter* c = obs::Registry::Default()->GetOrCreateCounter(
      "stetho_layout_cache_misses_total",
      "Layout cache lookups that ran the full Sugiyama pipeline");
  return c;
}

}  // namespace

LayoutCache::LayoutCache(size_t capacity) : capacity_(capacity) {}

LayoutCache* LayoutCache::Default() {
  static LayoutCache* cache = new LayoutCache(DefaultCapacity());
  return cache;
}

uint64_t LayoutCache::HashKey(const dot::Graph& graph,
                              const LayoutOptions& options) {
  uint64_t h = kFnvOffset;
  HashInt(&h, static_cast<int64_t>(graph.num_nodes()));
  for (const dot::GraphNode& node : graph.nodes()) {
    HashString(&h, node.id);
    HashString(&h, node.label());
  }
  HashInt(&h, static_cast<int64_t>(graph.num_edges()));
  for (const dot::GraphEdge& edge : graph.edges()) {
    HashString(&h, edge.from);
    HashString(&h, edge.to);
  }
  // Every option (each one affects geometry).
  HashDouble(&h, options.char_width);
  HashDouble(&h, options.node_height);
  HashDouble(&h, options.min_node_width);
  HashDouble(&h, options.max_node_width);
  HashDouble(&h, options.layer_gap);
  HashDouble(&h, options.node_gap);
  HashDouble(&h, options.margin);
  HashInt(&h, options.barycenter_sweeps);
  HashInt(&h, options.median ? 1 : 0);
  HashInt(&h, options.transpose_passes);
  return h;
}

Result<std::shared_ptr<const GraphLayout>> LayoutCache::GetOrCompute(
    const dot::Graph& graph, const LayoutOptions& options) {
  if (capacity_ == 0) {
    MissCounter()->Increment();
    STETHO_ASSIGN_OR_RETURN(GraphLayout layout, LayoutGraph(graph, options));
    return std::make_shared<const GraphLayout>(std::move(layout));
  }
  uint64_t key = HashKey(graph, options);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      mru_.splice(mru_.begin(), mru_, it->second);
      HitCounter()->Increment();
      return it->second->layout;
    }
  }
  // Miss: compute outside the lock so concurrent misses on different
  // graphs do not serialize behind one Sugiyama run.
  MissCounter()->Increment();
  STETHO_ASSIGN_OR_RETURN(GraphLayout layout, LayoutGraph(graph, options));
  auto shared = std::make_shared<const GraphLayout>(std::move(layout));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    // A concurrent caller inserted the same key first; keep its entry.
    mru_.splice(mru_.begin(), mru_, it->second);
    return it->second->layout;
  }
  mru_.push_front(Entry{key, shared});
  index_[key] = mru_.begin();
  while (mru_.size() > capacity_) {
    index_.erase(mru_.back().key);
    mru_.pop_back();
  }
  return shared;
}

size_t LayoutCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return mru_.size();
}

void LayoutCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  mru_.clear();
  index_.clear();
}

}  // namespace stetho::layout
