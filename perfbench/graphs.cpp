// graphs.cpp — seeded workload inputs: the graphs and the source order.
//
// Sources are drawn from the largest connected component only.  On rmat
// graphs a uniformly drawn vertex is often isolated or sits in a tiny
// component, and such a query finishes in microseconds; mixing those in
// makes latency bimodal and lets a drift towards trivial queries pass for
// a speed-up.
//
// Within the component the draw is stratified.  Query cost follows the
// source's eccentricity (bucket count grows with the farthest distance),
// and a run of a few dozen independent draws (road-w) can land mostly near
// the centre or mostly near the rim, which moves the latency percentiles
// from seed to seed by more than the regressions the benchmark must catch.
// So the component is sorted by estimated eccentricity and sources are
// taken at the points of a randomly shifted, jittered van der Corput
// sequence along that order: each source is still uniform over the
// component, and every prefix of the order covers the eccentricity range
// evenly.
#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <utility>

#include "graph/generators.hpp"
#include "graph/weights.hpp"
#include "perfbench.hpp"

namespace perfbench {

namespace {

// Salts separating the random streams drawn from one workload seed.
constexpr std::uint64_t kGraphSalt = 0x67726170685f5f31ULL;
constexpr std::uint64_t kWeightSalt = 0x7765696768745f32ULL;
constexpr std::uint64_t kSourceSalt = 0x736f757263655f33ULL;

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Vertices of the largest connected component of a symmetric matrix
/// (lowest-id component on ties), ascending.
std::vector<Index> largest_component(const grb::Matrix<double>& a) {
  const Index n = a.nrows();
  constexpr Index kUnseen = ~Index{0};
  std::vector<Index> label(n, kUnseen);
  std::vector<Index> stack;
  Index best_label = 0;
  std::size_t best_size = 0;
  for (Index root = 0; root < n; ++root) {
    if (label[root] != kUnseen) continue;
    std::size_t size = 0;
    label[root] = root;
    stack.push_back(root);
    while (!stack.empty()) {
      const Index u = stack.back();
      stack.pop_back();
      ++size;
      for (Index v : a.row_indices(u)) {
        if (label[v] == kUnseen) {
          label[v] = root;
          stack.push_back(v);
        }
      }
    }
    if (size > best_size) {
      best_size = size;
      best_label = root;
    }
  }
  std::vector<Index> members;
  members.reserve(best_size);
  for (Index v = 0; v < n; ++v) {
    if (label[v] == best_label) members.push_back(v);
  }
  return members;
}

constexpr std::uint32_t kUnreached = std::numeric_limits<std::uint32_t>::max();

/// Hop distances from `root`; kUnreached outside its component.
std::vector<std::uint32_t> hop_distances(const grb::Matrix<double>& a,
                                         Index root) {
  std::vector<std::uint32_t> depth(a.nrows(), kUnreached);
  std::vector<Index> frontier{root}, next;
  depth[root] = 0;
  for (std::uint32_t level = 1; !frontier.empty(); ++level) {
    next.clear();
    for (Index u : frontier) {
      for (Index v : a.row_indices(u)) {
        if (depth[v] == kUnreached) {
          depth[v] = level;
          next.push_back(v);
        }
      }
    }
    frontier.swap(next);
  }
  return depth;
}

/// Eccentricity estimate for every vertex of `component`: the largest hop
/// distance to four landmarks picked by farthest-point sweeps (exact on a
/// grid, where they are the corners).
std::vector<std::uint32_t> eccentricity_estimate(
    const grb::Matrix<double>& a, const std::vector<Index>& component) {
  constexpr int kLandmarks = 4;
  std::vector<std::uint32_t> ecc(a.nrows(), 0);
  std::vector<std::uint32_t> nearest(a.nrows(), kUnreached);
  Index landmark = component.front();
  // The first sweep only finds a peripheral start point.
  {
    const std::vector<std::uint32_t> d = hop_distances(a, landmark);
    for (Index v : component) {
      if (d[v] > d[landmark]) landmark = v;
    }
  }
  for (int k = 0; k < kLandmarks; ++k) {
    const std::vector<std::uint32_t> d = hop_distances(a, landmark);
    for (Index v : component) {
      ecc[v] = std::max(ecc[v], d[v]);
      nearest[v] = std::min(nearest[v], d[v]);
    }
    for (Index v : component) {
      if (nearest[v] > nearest[landmark]) landmark = v;
    }
  }
  return ecc;
}

/// Radical inverse of i in base 2.
double van_der_corput(std::uint64_t i) {
  double value = 0, unit = 0.5;
  for (; i; i >>= 1, unit *= 0.5) {
    if (i & 1) value += unit;
  }
  return value;
}

double uniform01(std::uint64_t& state) {
  return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}

/// The stratified source order described at the top of this file: the
/// first kStratified sources follow the sequence, the rest of the
/// component follows in random order.
std::vector<Index> source_order(const grb::Matrix<double>& a,
                                std::vector<Index> component,
                                std::uint64_t seed) {
  constexpr std::size_t kStratified = 20000;
  std::uint64_t state = mix_seed(seed, kSourceSalt);
  const std::vector<std::uint32_t> ecc = eccentricity_estimate(a, component);
  std::vector<std::uint64_t> tiebreak(a.nrows(), 0);
  for (Index v : component) tiebreak[v] = splitmix64(state);
  std::sort(component.begin(), component.end(), [&](Index x, Index y) {
    return ecc[x] != ecc[y] ? ecc[x] < ecc[y] : tiebreak[x] < tiebreak[y];
  });

  const std::size_t m = component.size();
  std::vector<unsigned char> used(m, 0);
  std::vector<Index> order;
  order.reserve(m);
  const double shift = uniform01(state);
  for (std::uint64_t i = 0; i < std::min(m, kStratified); ++i) {
    // Point i refines the strata of points 0..i-1: it lies in a stratum of
    // width 2^-(floor(log2 i) + 1), jittered within it.
    const double width = i == 0 ? 1.0 : std::ldexp(1.0, -std::bit_width(i));
    double u = van_der_corput(i) + width * uniform01(state) + shift;
    u -= std::floor(u);
    auto pos = std::min(m - 1, static_cast<std::size_t>(u * static_cast<double>(m)));
    while (used[pos]) pos = (pos + 1) % m;
    used[pos] = 1;
    order.push_back(component[pos]);
  }
  std::vector<Index> rest;
  for (std::size_t pos = 0; pos < m; ++pos) {
    if (!used[pos]) rest.push_back(component[pos]);
  }
  // Fisher-Yates with a fixed generator, so the order is the same on every
  // standard library.
  for (std::size_t i = rest.size(); i > 1; --i) {
    std::swap(rest[i - 1], rest[splitmix64(state) % i]);
  }
  order.insert(order.end(), rest.begin(), rest.end());
  return order;
}

GraphInput finish(dsg::EdgeList graph, std::uint64_t seed) {
  GraphInput input;
  input.matrix =
      std::make_shared<const grb::Matrix<double>>(graph.to_matrix());
  input.sources =
      source_order(*input.matrix, largest_component(*input.matrix), seed);
  return input;
}

}  // namespace

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t state = seed ^ salt;
  return splitmix64(state);
}

GraphInput make_road_graph(std::uint64_t seed) {
  dsg::EdgeList graph = dsg::generate_grid2d(512, 512);
  graph.symmetrize();
  graph.normalize();
  dsg::assign_uniform_weights(graph, 1.0, 100.0, mix_seed(seed, kWeightSalt));
  return finish(std::move(graph), seed);
}

GraphInput make_rmat_graph(unsigned scale, std::uint64_t seed) {
  dsg::EdgeList graph = dsg::generate_rmat(
      {.scale = scale, .edge_factor = 12, .seed = mix_seed(seed, kGraphSalt)});
  graph.symmetrize();
  graph.normalize();
  dsg::assign_unit_weights(graph);
  return finish(std::move(graph), seed);
}

std::uint64_t hash_distances(const std::vector<double>& dist) {
  std::uint64_t h = 0xcbf29ce484222325ULL ^ dist.size();
  for (double d : dist) {
    h = (h ^ std::bit_cast<std::uint64_t>(d)) * 0x100000001b3ULL;
    h ^= h >> 29;
  }
  return h;
}

Index count_reached(const std::vector<double>& dist) {
  return static_cast<Index>(std::count_if(
      dist.begin(), dist.end(), [](double d) { return std::isfinite(d); }));
}

}  // namespace perfbench
