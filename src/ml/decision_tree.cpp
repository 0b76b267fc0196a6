#include "ml/decision_tree.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>

#include "ml/binned_dataset.hpp"
#include "ml/model_io.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"

namespace xdmodml::ml::detail {

namespace {

/// Gini impurity of a class-count vector with `total` samples.
double gini(std::span<const std::size_t> counts, std::size_t total) {
  if (total == 0) return 0.0;
  double sum_sq = 0.0;
  for (const auto c : counts) {
    const double p = static_cast<double>(c) / static_cast<double>(total);
    sum_sq += p * p;
  }
  return 1.0 - sum_sq;
}

/// Same impurity over integral counts stored as doubles (histogram
/// accumulators), summed over `present`: the node's classes with a
/// non-zero count, ascending.  The result equals `gini`'s bit for bit:
/// an integral double divided by double(total) is the value the size_t
/// version computes, and a class absent from the node adds
/// (0/total)² = +0 to a non-negative sum, which changes no bit.
double gini_present(std::span<const double> counts,
                    std::span<const std::size_t> present,
                    std::size_t total) {
  if (total == 0) return 0.0;
  double sum_sq = 0.0;
  for (const auto c : present) {
    const double p = counts[c] / static_cast<double>(total);
    sum_sq += p * p;
  }
  return 1.0 - sum_sq;
}

}  // namespace

struct TreeEngine::BuildContext {
  const Matrix* X = nullptr;
  std::span<const int> y_class;
  std::span<const double> y_value;
  std::vector<std::size_t> samples;  // reordered in place during the build
  Rng* rng = nullptr;
  // Scratch buffers reused across nodes (hoisted out of the split loop so
  // neither arm touches the allocator per candidate feature).
  std::vector<std::size_t> feature_pool;
  std::vector<std::pair<double, std::size_t>> sorted;  // (value, sample idx)
  std::vector<std::size_t> node_counts;  // per-class counts of the node
  std::vector<std::size_t> present;      // classes with node_counts > 0
  std::vector<std::size_t> left_counts;  // exact-arm running counts
  std::vector<std::size_t> right_counts;

  // ---- histogram-arm (kHist) state ----
  SplitAlgo algo = SplitAlgo::kExact;
  bool classification = true;
  const BinnedDataset* binned = nullptr;
  std::size_t width = 0;  // doubles per bin: num_classes, or 3 for regression

  /// One feature's histogram: `data` is num_bins(feature) · width doubles
  /// (class counts, or count/sum/sumsq triples), `touched` the bins that
  /// hold at least one sample, ascending.  Invariant: every slot outside
  /// `touched` is zero, so reusing the buffer only needs the touched slots
  /// rezeroed.
  struct HistSlot {
    std::vector<double> data;
    std::vector<std::uint16_t> touched;
  };

  HistSlot scratch_hist;  // every node's histograms, one feature at a time
  std::vector<double> node_stats;          // node totals (width doubles)
  std::vector<double> left_acc, right_acc; // hist-scan running stats

  // Per-fit tallies, flushed to util/metrics once per fit (coarse sites).
  std::uint64_t tally_nodes = 0;
  std::uint64_t tally_sorted_values = 0;
  std::uint64_t tally_hist_built = 0;
  std::uint64_t tally_scan_bins = 0;

  /// Restores a slot to the all-zero state and sizes it for `bins` bins.
  static void reset_slot(HistSlot& h, std::size_t bins, std::size_t width) {
    for (const auto b : h.touched) {
      std::fill_n(h.data.data() + b * width, width, 0.0);
    }
    h.touched.clear();
    if (h.data.size() < bins * width) h.data.resize(bins * width, 0.0);
  }

  /// One O(n) accumulation pass over ctx.samples[begin, end) into `h`
  /// (which must be all-zero).  Each sample sets its bin's bit in a
  /// 256-bit mask; listing the set bits word by word yields the touched
  /// bins in ascending value order, which the scan and the threshold
  /// reconstruction rely on.
  void accumulate(std::size_t f, std::size_t begin, std::size_t end,
                  HistSlot& h) {
    const std::uint8_t* col = binned->column(f);
    std::array<std::uint64_t, BinnedDataset::kMaxBins / 64> mask{};
    const auto mark = [&mask](std::uint8_t b) {
      mask[b >> 6] |= std::uint64_t{1} << (b & 63);
    };
    if (classification) {
      for (std::size_t i = begin; i < end; ++i) {
        const std::size_t s = samples[i];
        const std::uint8_t b = col[s];
        mark(b);
        h.data[b * width + static_cast<std::size_t>(y_class[s])] += 1.0;
      }
    } else {
      for (std::size_t i = begin; i < end; ++i) {
        const std::size_t s = samples[i];
        const std::uint8_t b = col[s];
        mark(b);
        double* slot = h.data.data() + b * 3;
        const double v = y_value[s];
        slot[0] += 1.0;
        slot[1] += v;
        slot[2] += v * v;
      }
    }
    for (std::size_t w = 0; w < mask.size(); ++w) {
      for (std::uint64_t bits = mask[w]; bits != 0; bits &= bits - 1) {
        h.touched.push_back(
            static_cast<std::uint16_t>(w * 64 + std::countr_zero(bits)));
      }
    }
    ++tally_hist_built;
  }

  /// Histogram of feature f over the node [begin, end): one
  /// accumulation pass into the reused scratch slot.
  const HistSlot& node_hist(std::size_t f, std::size_t begin,
                            std::size_t end) {
    reset_slot(scratch_hist, binned->num_bins(f), width);
    accumulate(f, begin, end, scratch_hist);
    return scratch_hist;
  }
};

void TreeEngine::fit(const Matrix& X, std::span<const int> y_class,
                     std::span<const double> y_value, int num_classes,
                     std::span<const std::size_t> sample_indices, Rng& rng,
                     const BinnedDataset* binned) {
  XDMODML_CHECK(!sample_indices.empty(), "tree fit requires samples");
  if (task_ == Task::kClassification) {
    XDMODML_CHECK(num_classes > 0, "classification requires num_classes");
    XDMODML_CHECK(y_class.size() == X.rows(), "labels must match rows");
  } else {
    XDMODML_CHECK(y_value.size() == X.rows(), "targets must match rows");
  }
  num_classes_ = num_classes;
  num_features_ = X.cols();
  nodes_.clear();
  impurity_importance_.assign(num_features_, 0.0);

  BuildContext ctx;
  ctx.X = &X;
  ctx.y_class = y_class;
  ctx.y_value = y_value;
  ctx.samples.assign(sample_indices.begin(), sample_indices.end());
  ctx.rng = &rng;
  ctx.feature_pool.resize(num_features_);
  std::iota(ctx.feature_pool.begin(), ctx.feature_pool.end(), 0);
  ctx.algo = config_.split_algo;
  ctx.classification = task_ == Task::kClassification;

  std::unique_ptr<BinnedDataset> owned;
  if (ctx.algo == SplitAlgo::kHist) {
    if (binned == nullptr) {
      owned = std::make_unique<BinnedDataset>(X);
      binned = owned.get();
    }
    XDMODML_CHECK(binned->rows() == X.rows() &&
                      binned->features() == X.cols(),
                  "binned dataset does not match X");
    ctx.binned = binned;
    ctx.width =
        ctx.classification ? static_cast<std::size_t>(num_classes) : 3;
  }

  build_node(ctx, 0, ctx.samples.size(), 0);

  // Flush the per-fit tallies: one batch of relaxed adds per fit, never
  // per node or per bin.
  auto& registry = obs::MetricsRegistry::instance();
  static auto& nodes_counter = registry.counter("tree.nodes");
  static auto& sorted_counter = registry.counter("tree.exact_sorted_values");
  static auto& built_counter = registry.counter("tree.hist_built");
  static auto& scan_counter = registry.counter("tree.hist_scan_bins");
  nodes_counter.inc(ctx.tally_nodes);
  sorted_counter.inc(ctx.tally_sorted_values);
  built_counter.inc(ctx.tally_hist_built);
  scan_counter.inc(ctx.tally_scan_bins);
}

std::size_t TreeEngine::build_node(BuildContext& ctx, std::size_t begin,
                                   std::size_t end, std::size_t depth_now) {
  const Matrix& X = *ctx.X;
  const std::size_t n = end - begin;
  const std::size_t node_index = nodes_.size();
  nodes_.emplace_back();
  ++ctx.tally_nodes;

  const bool hist = ctx.algo == SplitAlgo::kHist;

  // Node statistics.
  auto& counts = ctx.node_counts;
  double sum = 0.0;
  double sum_sq = 0.0;
  if (task_ == Task::kClassification) {
    counts.assign(static_cast<std::size_t>(num_classes_), 0);
    for (std::size_t i = begin; i < end; ++i) {
      ++counts[static_cast<std::size_t>(ctx.y_class[ctx.samples[i]])];
    }
  } else {
    for (std::size_t i = begin; i < end; ++i) {
      const double v = ctx.y_value[ctx.samples[i]];
      sum += v;
      sum_sq += v * v;
    }
  }
  const double node_impurity =
      task_ == Task::kClassification
          ? gini(counts, n)
          : std::max(0.0, sum_sq / static_cast<double>(n) -
                              (sum / static_cast<double>(n)) *
                                  (sum / static_cast<double>(n)));

  auto make_leaf = [&]() {
    TreeNode& leaf = nodes_[node_index];
    leaf.feature = -1;
    if (task_ == Task::kClassification) {
      leaf.class_probs.resize(counts.size());
      for (std::size_t c = 0; c < counts.size(); ++c) {
        leaf.class_probs[c] =
            static_cast<double>(counts[c]) / static_cast<double>(n);
      }
    } else {
      leaf.value = sum / static_cast<double>(n);
    }
    return node_index;
  };

  const bool pure =
      task_ == Task::kClassification
          ? std::count_if(counts.begin(), counts.end(),
                          [](std::size_t c) { return c > 0; }) <= 1
          : node_impurity <= 1e-12;
  if (pure || n < config_.min_samples_split ||
      (config_.max_depth != 0 && depth_now >= config_.max_depth)) {
    return make_leaf();
  }

  // Feature subset for this split.  Features that are constant within
  // the node do not count against the mtry budget (the scikit-learn
  // convention): the lazy Fisher–Yates below keeps drawing fresh features
  // until mtry *splittable* candidates have been scored or the pool is
  // exhausted.  Without this, one-hot-heavy feature spaces starve small
  // mtry values of usable candidates.  Both split arms draw features the
  // same way, so on data where binning is lossless (every distinct value
  // in its own bin) their RNG streams — and therefore their trees — stay
  // aligned.
  const std::size_t mtry =
      config_.max_features == 0
          ? num_features_
          : std::min(config_.max_features, num_features_);

  int best_feature = -1;
  double best_threshold = 0.0;
  double best_gain = config_.min_impurity_decrease;
  int best_bin = -1;
  std::size_t evaluated = 0;

  if (hist) {
    auto& totals = ctx.node_stats;
    auto& present = ctx.present;
    if (task_ == Task::kClassification) {
      totals.resize(ctx.width);
      present.clear();
      for (std::size_t c = 0; c < ctx.width; ++c) {
        totals[c] = static_cast<double>(counts[c]);
        if (counts[c] > 0) present.push_back(c);
      }
    } else {
      totals.assign({static_cast<double>(n), sum, sum_sq});
    }
    for (std::size_t fi = 0; fi < num_features_ && evaluated < mtry; ++fi) {
      const std::size_t j =
          fi + static_cast<std::size_t>(ctx.rng->uniform_index(
                   static_cast<std::uint64_t>(num_features_ - fi)));
      std::swap(ctx.feature_pool[fi], ctx.feature_pool[j]);
      const std::size_t f = ctx.feature_pool[fi];
      const auto& h = ctx.node_hist(f, begin, end);
      const auto& touched = h.touched;
      if (touched.size() < 2) continue;  // constant within this node
      ++evaluated;
      ctx.tally_scan_bins += touched.size();

      auto& left = ctx.left_acc;
      auto& right = ctx.right_acc;
      left.assign(ctx.width, 0.0);
      right.assign(totals.begin(), totals.end());
      if (task_ == Task::kClassification) {
        // A class absent from the node is +0 in every bin, on both sides
        // and in `moved`, so only the present classes are updated.
        std::size_t nl = 0;
        for (std::size_t t = 0; t + 1 < touched.size(); ++t) {
          const double* hb = h.data.data() + touched[t] * ctx.width;
          double moved = 0.0;
          for (const auto c : present) {
            left[c] += hb[c];
            right[c] -= hb[c];
            moved += hb[c];
          }
          nl += static_cast<std::size_t>(moved);
          const std::size_t nr = n - nl;
          if (nl < config_.min_samples_leaf ||
              nr < config_.min_samples_leaf) {
            continue;
          }
          const double gain =
              node_impurity -
              (static_cast<double>(nl) * gini_present(left, present, nl) +
               static_cast<double>(nr) * gini_present(right, present, nr)) /
                  static_cast<double>(n);
          if (gain > best_gain) {
            best_gain = gain;
            best_feature = static_cast<int>(f);
            best_bin = touched[t];
            best_threshold =
                ctx.binned->split_threshold(f, touched[t], touched[t + 1]);
          }
        }
      } else {
        const auto min_leaf =
            static_cast<double>(config_.min_samples_leaf);
        for (std::size_t t = 0; t + 1 < touched.size(); ++t) {
          const double* hb = h.data.data() + touched[t] * 3;
          for (std::size_t c = 0; c < 3; ++c) {
            left[c] += hb[c];
            right[c] -= hb[c];
          }
          const double nl = left[0];
          const double nr = right[0];
          if (nl < min_leaf || nr < min_leaf) continue;
          const double var_l = std::max(
              0.0, left[2] / nl - (left[1] / nl) * (left[1] / nl));
          const double var_r = std::max(
              0.0, right[2] / nr - (right[1] / nr) * (right[1] / nr));
          const double gain = node_impurity -
                              (nl * var_l + nr * var_r) /
                                  static_cast<double>(n);
          if (gain > best_gain) {
            best_gain = gain;
            best_feature = static_cast<int>(f);
            best_bin = touched[t];
            best_threshold =
                ctx.binned->split_threshold(f, touched[t], touched[t + 1]);
          }
        }
      }
    }
  } else {
    for (std::size_t fi = 0; fi < num_features_ && evaluated < mtry; ++fi) {
      // Lazy partial shuffle: position fi gets a uniform draw from the
      // remaining pool.
      const std::size_t j =
          fi + static_cast<std::size_t>(ctx.rng->uniform_index(
                   static_cast<std::uint64_t>(num_features_ - fi)));
      std::swap(ctx.feature_pool[fi], ctx.feature_pool[j]);
      const std::size_t f = ctx.feature_pool[fi];
      auto& sorted = ctx.sorted;
      sorted.clear();
      sorted.reserve(n);
      for (std::size_t i = begin; i < end; ++i) {
        sorted.emplace_back(X(ctx.samples[i], f), ctx.samples[i]);
      }
      std::sort(sorted.begin(), sorted.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      ctx.tally_sorted_values += n;
      if (sorted.front().first == sorted.back().first) continue;  // constant
      ++evaluated;

      if (task_ == Task::kClassification) {
        auto& left_counts = ctx.left_counts;
        auto& right_counts = ctx.right_counts;
        left_counts.assign(counts.size(), 0);
        right_counts = counts;
        for (std::size_t i = 0; i + 1 < n; ++i) {
          const auto cls =
              static_cast<std::size_t>(ctx.y_class[sorted[i].second]);
          ++left_counts[cls];
          --right_counts[cls];
          if (sorted[i].first == sorted[i + 1].first) continue;
          const std::size_t nl = i + 1;
          const std::size_t nr = n - nl;
          if (nl < config_.min_samples_leaf || nr < config_.min_samples_leaf) {
            continue;
          }
          const double gain =
              node_impurity -
              (static_cast<double>(nl) * gini(left_counts, nl) +
               static_cast<double>(nr) * gini(right_counts, nr)) /
                  static_cast<double>(n);
          if (gain > best_gain) {
            best_gain = gain;
            best_feature = static_cast<int>(f);
            best_threshold = 0.5 * (sorted[i].first + sorted[i + 1].first);
          }
        }
      } else {
        double left_sum = 0.0;
        double left_sq = 0.0;
        double right_sum = sum;
        double right_sq = sum_sq;
        for (std::size_t i = 0; i + 1 < n; ++i) {
          const double v = ctx.y_value[sorted[i].second];
          left_sum += v;
          left_sq += v * v;
          right_sum -= v;
          right_sq -= v * v;
          if (sorted[i].first == sorted[i + 1].first) continue;
          const auto nl = static_cast<double>(i + 1);
          const auto nr = static_cast<double>(n - i - 1);
          if (i + 1 < config_.min_samples_leaf ||
              n - i - 1 < config_.min_samples_leaf) {
            continue;
          }
          const double var_l = std::max(0.0, left_sq / nl -
                                                 (left_sum / nl) *
                                                     (left_sum / nl));
          const double var_r = std::max(0.0, right_sq / nr -
                                                 (right_sum / nr) *
                                                     (right_sum / nr));
          const double gain = node_impurity -
                              (nl * var_l + nr * var_r) /
                                  static_cast<double>(n);
          if (gain > best_gain) {
            best_gain = gain;
            best_feature = static_cast<int>(f);
            best_threshold = 0.5 * (sorted[i].first + sorted[i + 1].first);
          }
        }
      }
    }
  }

  if (best_feature < 0) return make_leaf();

  // Partition ctx.samples[begin, end) around the chosen split.  The hist
  // arm partitions by bin code — the same sample set that thresholding
  // the raw values would select, resolved with one byte compare per
  // sample.
  std::size_t mid;
  if (hist) {
    const std::uint8_t* col =
        ctx.binned->column(static_cast<std::size_t>(best_feature));
    const auto bin = static_cast<std::uint8_t>(best_bin);
    auto* mid_it = std::partition(
        ctx.samples.data() + begin, ctx.samples.data() + end,
        [col, bin](std::size_t s) { return col[s] <= bin; });
    mid = static_cast<std::size_t>(mid_it - ctx.samples.data());
  } else {
    auto* mid_it = std::partition(
        ctx.samples.data() + begin, ctx.samples.data() + end,
        [&](std::size_t s) {
          return X(s, static_cast<std::size_t>(best_feature)) <=
                 best_threshold;
        });
    mid = static_cast<std::size_t>(mid_it - ctx.samples.data());
  }
  if (mid == begin || mid == end) return make_leaf();  // numeric edge case

  impurity_importance_[static_cast<std::size_t>(best_feature)] +=
      best_gain * static_cast<double>(n);

  // Fill the split node; children are built afterwards so their indices
  // are known only post-recursion.  Left before right: the node order and
  // the order of the RNG's feature draws follow this recursion, so the
  // saved trees depend on it.
  nodes_[node_index].feature = best_feature;
  nodes_[node_index].threshold = best_threshold;
  const std::size_t left_index = build_node(ctx, begin, mid, depth_now + 1);
  const std::size_t right_index = build_node(ctx, mid, end, depth_now + 1);
  nodes_[node_index].left = left_index;
  nodes_[node_index].right = right_index;
  return node_index;
}

const TreeNode& TreeEngine::descend(std::span<const double> x) const {
  XDMODML_CHECK(trained(), "tree used before fit");
  XDMODML_CHECK(x.size() == num_features_, "feature width mismatch");
  std::size_t i = 0;
  while (nodes_[i].feature >= 0) {
    const auto f = static_cast<std::size_t>(nodes_[i].feature);
    i = x[f] <= nodes_[i].threshold ? nodes_[i].left : nodes_[i].right;
  }
  return nodes_[i];
}

std::span<const double> TreeEngine::leaf_probs(
    std::span<const double> x) const {
  return descend(x).class_probs;
}

double TreeEngine::leaf_value(std::span<const double> x) const {
  return descend(x).value;
}

void TreeEngine::save(std::ostream& out) const {
  XDMODML_CHECK(trained(), "cannot save an untrained tree");
  io::write_tag(out, "tree-v1");
  io::write_scalar(out, "task",
                   static_cast<std::int64_t>(
                       task_ == Task::kClassification ? 0 : 1));
  io::write_scalar(out, "classes",
                   static_cast<std::int64_t>(num_classes_));
  io::write_scalar(out, "features",
                   static_cast<std::int64_t>(num_features_));
  io::write_scalar(out, "nodes", static_cast<std::int64_t>(nodes_.size()));
  for (const auto& node : nodes_) {
    io::write_scalar(out, "f", static_cast<std::int64_t>(node.feature));
    io::write_scalar(out, "t", node.threshold);
    io::write_scalar(out, "l", static_cast<std::int64_t>(node.left));
    io::write_scalar(out, "r", static_cast<std::int64_t>(node.right));
    io::write_scalar(out, "v", node.value);
    io::write_vector(out, "p", node.class_probs);
  }
  io::write_vector(out, "importance", impurity_importance_);
}

TreeEngine TreeEngine::load(std::istream& in) {
  io::TokenReader reader(in);
  reader.expect("tree-v1");
  const auto task = reader.read_int("task");
  XDMODML_CHECK(task == 0 || task == 1, "corrupt tree task");
  TreeEngine engine(task == 0 ? Task::kClassification : Task::kRegression,
                    TreeConfig{});
  engine.num_classes_ = reader.read_count("classes", 0);
  engine.num_features_ =
      static_cast<std::size_t>(reader.read_count("features", 1));
  const auto node_count = reader.read_int("nodes");
  XDMODML_CHECK(node_count > 0, "corrupt tree node count");
  const auto nodes = static_cast<std::size_t>(node_count);
  // Grown as records arrive: a corrupt count runs out of tokens instead
  // of sizing an allocation.
  for (std::size_t idx = 0; idx < nodes; ++idx) {
    auto& node = engine.nodes_.emplace_back();
    // Range-checked before narrowing: 2^32 + k would cast to feature k.
    const auto feature = reader.read_int("f");
    XDMODML_CHECK(feature >= -1 && feature < static_cast<std::int64_t>(
                                                 engine.num_features_),
                  "corrupt tree feature index");
    node.feature = static_cast<int>(feature);
    node.threshold = reader.read_double("t");
    node.left = static_cast<std::size_t>(reader.read_int("l"));
    node.right = static_cast<std::size_t>(reader.read_int("r"));
    node.value = reader.read_double("v");
    node.class_probs = reader.read_vector("p");
    if (node.feature >= 0) {
      // The builder emits children after their parent, so every edge
      // points strictly forward.  Anything else — a self-loop, a back
      // edge to an ancestor — would make descend() spin forever on a
      // crafted payload.
      XDMODML_CHECK(node.left > idx && node.left < nodes &&
                        node.right > idx && node.right < nodes,
                    "corrupt tree child index");
    } else if (task == 0) {
      // A fitted leaf is counts / n: entries in [0, 1] that sum to 1
      // within a few ulps.  Anything else would be served as a
      // probability.
      const auto& p = node.class_probs;
      const bool in_unit = std::all_of(p.begin(), p.end(), [](double v) {
        return v >= 0.0 && v <= 1.0;
      });
      XDMODML_CHECK(
          p.size() == static_cast<std::size_t>(engine.num_classes_) &&
              in_unit &&
              std::abs(std::accumulate(p.begin(), p.end(), 0.0) - 1.0) <=
                  1e-9,
          "corrupt tree leaf distribution");
    }
  }
  engine.impurity_importance_ = reader.read_vector("importance");
  return engine;
}

std::size_t TreeEngine::depth() const {
  if (nodes_.empty()) return 0;
  // Iterative depth computation over the node vector.
  std::vector<std::pair<std::size_t, std::size_t>> stack{{0, 1}};
  std::size_t max_depth = 0;
  while (!stack.empty()) {
    const auto [idx, d] = stack.back();
    stack.pop_back();
    max_depth = std::max(max_depth, d);
    if (nodes_[idx].feature >= 0) {
      stack.emplace_back(nodes_[idx].left, d + 1);
      stack.emplace_back(nodes_[idx].right, d + 1);
    }
  }
  return max_depth;
}

}  // namespace xdmodml::ml::detail

namespace xdmodml::ml {

DecisionTreeClassifier::DecisionTreeClassifier(TreeConfig config,
                                               std::uint64_t seed)
    : engine_(detail::TreeEngine::Task::kClassification, config),
      rng_(seed) {}

void DecisionTreeClassifier::fit(const Matrix& X, std::span<const int> y,
                                 int num_classes) {
  require_finite_features(X);
  num_classes_ = num_classes;
  std::vector<std::size_t> all(X.rows());
  std::iota(all.begin(), all.end(), 0);
  engine_.fit(X, y, {}, num_classes, all, rng_);
}

std::vector<double> DecisionTreeClassifier::predict_proba(
    std::span<const double> x) const {
  const auto probs = engine_.leaf_probs(x);
  return {probs.begin(), probs.end()};
}

DecisionTreeRegressor::DecisionTreeRegressor(TreeConfig config,
                                             std::uint64_t seed)
    : engine_(detail::TreeEngine::Task::kRegression, config), rng_(seed) {}

void DecisionTreeRegressor::fit(const Matrix& X, std::span<const double> y) {
  require_finite_features(X);
  std::vector<std::size_t> all(X.rows());
  std::iota(all.begin(), all.end(), 0);
  engine_.fit(X, {}, y, 0, all, rng_);
}

double DecisionTreeRegressor::predict(std::span<const double> x) const {
  return engine_.leaf_value(x);
}

}  // namespace xdmodml::ml
