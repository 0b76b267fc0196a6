// Property tests for SharedGramCache: LRU eviction order, byte-budget
// capacity accounting for float32 rows, slice helpers, and a
// multi-threaded hammer asserting no torn rows or double-fills, on the
// LRU and on a complete cache.
#include "ml/smo.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

#include "ml/kernel.hpp"
#include "util/failpoint.hpp"
#include "util/matrix.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace xdmodml::ml {
namespace {

Matrix make_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Rng rng(seed);
  Matrix X(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      X(r, c) = rng.normal(0.0, 1.0);
    }
  }
  return X;
}

TEST(SharedGramCacheProps, LruEvictionOrder) {
  const Matrix X = make_matrix(8, 3, 11);
  SharedGramCache cache(X, Kernel::rbf(0.5), 2);
  EXPECT_EQ(cache.capacity_rows(), 2u);

  (void)cache.row(0);  // miss, fill
  (void)cache.row(1);  // miss, fill — cache = {1, 0} (MRU first)
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.evictions(), 0u);

  (void)cache.row(0);  // hit, refreshes 0 — cache = {0, 1}
  EXPECT_EQ(cache.hits(), 1u);

  (void)cache.row(2);  // miss, evicts the LRU row 1 — cache = {2, 0}
  EXPECT_EQ(cache.evictions(), 1u);
  (void)cache.row(0);  // still resident: the refresh kept it off the tail
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 3u);

  (void)cache.row(1);  // evicted above, so this recomputes (evicting 2)
  EXPECT_EQ(cache.misses(), 4u);
  EXPECT_EQ(cache.evictions(), 2u);
}

// The cache's invariants in one snapshot: no eviction without its miss,
// residency within capacity, and bytes that match the rows.  A complete
// cache never evicts, and holds at most one row per miss.
void expect_stats_invariants(const SharedGramCache& cache) {
  const auto s = cache.stats();
  EXPECT_LE(s.evictions, s.misses);
  EXPECT_LE(s.resident_rows, cache.capacity_rows());
  EXPECT_EQ(s.resident_bytes, s.resident_rows * cache.row_bytes());
  if (cache.capacity_rows() >= cache.rows()) {
    EXPECT_EQ(s.evictions, 0u);
    EXPECT_LE(s.resident_rows, s.misses);
  }
}

// Capacity 4 runs the LRU over 6 rows; capacity 6 is a complete cache,
// whose reads go through the per-row slots.
TEST(SharedGramCacheProps, RepeatedAccessDoesNotDoubleFill) {
  const Matrix X = make_matrix(6, 3, 12);
  for (const std::size_t capacity : {4u, 6u}) {
    SCOPED_TRACE(capacity);
    SharedGramCache cache(X, Kernel::rbf(0.5), capacity);
    const auto first = cache.row(3);
    const auto second = cache.row(3);
    // Same payload, not a recomputed copy.
    EXPECT_EQ(first.get(), second.get());
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.stats().resident_rows, 1u);
    expect_stats_invariants(cache);
  }
}

TEST(SharedGramCacheProps, ByteBudgetAccountsForPrecision) {
  const std::size_t n = 100;
  const std::size_t budget = 100 * 1024;  // 100 KiB
  // float32 rows cost n*4 bytes.
  const auto rows_f32 = SharedGramCache::rows_for_budget(n, budget);
  EXPECT_EQ(rows_f32, budget / (n * sizeof(float)));
  // Tiny budgets floor at 2 rows so the LRU always has a victim.
  EXPECT_EQ(SharedGramCache::rows_for_budget(n, 0), 2u);

  const Matrix X = make_matrix(n, 4, 13);
  SharedGramCache f32(X, Kernel::rbf(0.1), rows_f32);
  EXPECT_EQ(f32.row_bytes(), n * sizeof(float));
  EXPECT_LE(f32.capacity_bytes(), budget);
}

TEST(SharedGramCacheProps, GatherAndDotMatchElementAccess) {
  const Matrix X = make_matrix(12, 4, 14);
  SharedGramCache cache(X, Kernel::rbf(0.2), X.rows());
  const auto row = cache.row(5);
  const std::vector<std::size_t> idx{7, 0, 11, 5, 2};
  std::vector<double> out(idx.size());
  row->gather(idx, out);
  const std::vector<double> coef{0.5, -1.0, 2.0, 0.25, -0.75};
  double expected_dot = 0.0;
  for (std::size_t t = 0; t < idx.size(); ++t) {
    EXPECT_EQ(out[t], (*row)[idx[t]]);
    expected_dot += coef[t] * (*row)[idx[t]];
  }
  EXPECT_DOUBLE_EQ(row->dot_at(idx, coef), expected_dot);
}

TEST(SharedGramCacheProps, Float32RowsRoundTheDoubleRows) {
  const Matrix X = make_matrix(20, 5, 15);
  const Kernel kernel = Kernel::rbf(0.3);
  SharedGramCache f32(X, kernel, X.rows());
  const GramRowEngine engine(X, kernel);
  std::vector<double> exact(X.rows());
  for (std::size_t i = 0; i < X.rows(); ++i) {
    const auto a = f32.row(i);
    engine.fill_row(i, exact);
    for (std::size_t j = 0; j < X.rows(); ++j) {
      // The float row is exactly the rounded double row: same sweep,
      // one narrowing conversion.
      EXPECT_EQ((*a)[j], static_cast<double>(static_cast<float>(exact[j])));
    }
  }
}

// N threads × M rows hammering a cache must never observe a torn or
// partially-filled row: every handed-out row matches the engine's
// reference values exactly, both while other threads force evictions
// from a small LRU and while they race to publish a complete cache's
// rows, which readers then take without the lock.  Capacity 6 of 32
// rows is the LRU under constant eviction; 32 is a complete cache.
TEST(SharedGramCacheProps, ConcurrentHammerYieldsNoTornRows) {
  const std::size_t n = 32;
  const Matrix X = make_matrix(n, 6, 16);
  const Kernel kernel = Kernel::rbf(0.25);

  // Reference rows straight from a private engine.
  const GramRowEngine reference(X, kernel);
  Matrix expected(n, n);
  for (std::size_t i = 0; i < n; ++i) reference.fill_row(i, expected.row(i));

  for (const std::size_t capacity : {6u, 32u}) {
    SCOPED_TRACE(capacity);
    SharedGramCache cache(X, kernel, capacity);
    constexpr std::size_t kThreads = 8;
    constexpr std::size_t kOpsPerThread = 300;
    std::atomic<std::size_t> mismatches{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        Rng rng(100 + t);
        for (std::size_t op = 0; op < kOpsPerThread; ++op) {
          const auto i = static_cast<std::size_t>(rng.uniform_index(n));
          const auto row = cache.row(i);
          if (row->size() != n) {
            ++mismatches;
            continue;
          }
          for (std::size_t j = 0; j < n; ++j) {
            const double want =
                static_cast<double>(static_cast<float>(expected(i, j)));
            if ((*row)[j] != want) ++mismatches;
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(mismatches.load(), 0u);
    // Every access is exactly one hit or one miss — racing threads may
    // compute a row twice, but the accounting never loses an access.
    EXPECT_EQ(cache.hits() + cache.misses(), kThreads * kOpsPerThread);
    EXPECT_GE(cache.misses(), n - std::min(n, cache.capacity_rows()));
    expect_stats_invariants(cache);
  }
}

// An allocation fault in a complete cache retries the compute without
// evicting: a reader may hold any published row without a reference
// count.  The fault and its retry are still counted.
TEST(SharedGramCacheProps, CompleteCacheAllocFaultKeepsPublishedRows) {
  const Matrix X = make_matrix(10, 4, 18);
  const Kernel kernel = Kernel::rbf(0.3);
  const GramRowEngine reference(X, kernel);
  std::vector<double> exact(X.rows());
  reference.fill_row(0, exact);
  SharedGramCache cache(X, kernel, X.rows());
  const auto held = cache.row(0);

  auto& registry = obs::MetricsRegistry::instance();
  const auto failures = registry.counter("fail.gram_cache.alloc").value();
  const auto retries = registry.counter("retry.gram_cache.evict_retry").value();
  fp::reset();
  fp::arm("gram_cache.alloc", fp::Policy::parse("error(12)*3"));
  for (std::size_t i = 1; i < X.rows(); ++i) (void)cache.row(i);
  fp::reset();

  EXPECT_EQ(registry.counter("fail.gram_cache.alloc").value() - failures, 3u);
  EXPECT_EQ(registry.counter("retry.gram_cache.evict_retry").value() - retries,
            3u);
  const auto s = cache.stats();
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.resident_rows, X.rows());
  EXPECT_EQ(cache.row(0).get(), held.get());
  for (std::size_t j = 0; j < X.rows(); ++j) {
    EXPECT_EQ((*held)[j], static_cast<double>(static_cast<float>(exact[j])));
  }
  expect_stats_invariants(cache);
}

// Regression test: composing the per-field accessors (hits(), misses(),
// evictions() — each taking the lock separately) could tear: a reader
// could see an eviction whose miss it had not seen, violating
// evictions <= misses.  `stats()` takes the lock once, so every
// snapshot must satisfy the cache invariants even while writer threads
// force continuous eviction churn.
TEST(SharedGramCacheProps, StatsSnapshotNeverTearsUnderConcurrentChurn) {
  const std::size_t n = 24;
  const Matrix X = make_matrix(n, 5, 17);
  SharedGramCache cache(X, Kernel::rbf(0.4), 4);  // small: constant churn

  std::atomic<bool> done{false};
  std::atomic<std::size_t> violations{0};
  std::thread reader([&] {
    std::size_t last_accesses = 0;
    while (!done.load()) {
      const auto s = cache.stats();
      if (s.evictions > s.misses) ++violations;
      if (s.resident_rows > cache.capacity_rows()) ++violations;
      if (s.resident_bytes != s.resident_rows * cache.row_bytes()) {
        ++violations;
      }
      // Accesses only ever accumulate.
      const std::size_t accesses = s.hits + s.misses;
      if (accesses < last_accesses) ++violations;
      last_accesses = accesses;
    }
  });

  constexpr std::size_t kWriters = 4;
  constexpr std::size_t kOpsPerWriter = 400;
  std::vector<std::thread> writers;
  for (std::size_t t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      Rng rng(200 + t);
      for (std::size_t op = 0; op < kOpsPerWriter; ++op) {
        (void)cache.row(static_cast<std::size_t>(rng.uniform_index(n)));
      }
    });
  }
  for (auto& th : writers) th.join();
  done.store(true);
  reader.join();
  EXPECT_EQ(violations.load(), 0u);

  // Quiesced, the snapshot and the convenience accessors agree.
  const auto s = cache.stats();
  EXPECT_EQ(s.hits, cache.hits());
  EXPECT_EQ(s.misses, cache.misses());
  EXPECT_EQ(s.evictions, cache.evictions());
  EXPECT_EQ(s.hits + s.misses, kWriters * kOpsPerWriter);
  EXPECT_LE(s.resident_rows, cache.capacity_rows());
  EXPECT_EQ(s.resident_bytes, s.resident_rows * cache.row_bytes());
}

}  // namespace
}  // namespace xdmodml::ml
