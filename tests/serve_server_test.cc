// Concurrency/determinism suite for the sharded scoring server
// (src/serve/server/): N client threads x M shards, interleaved
// single-row and batch requests, every response byte-identical to a
// serial RowScorer oracle regardless of shard count, batcher settings,
// or where the micro-batch cuts happen to land. Also locks down the
// backpressure contract (clean kUnavailable on saturation, caller
// buffers untouched), the shutdown drain (every accepted request
// completes), and the serve.server.* telemetry namespace being disjoint
// from the library-call series. The tsan preset re-runs the whole suite
// under ThreadSanitizer.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/engine.h"
#include "src/gbdt/booster.h"
#include "src/obs/metrics.h"
#include "src/serve/scorer.h"
#include "src/serve/server/scoring_server.h"
#include "tests/property_util.h"

namespace safe {
namespace {

using serve::server::ScoringServer;
using serve::server::ServerOptions;
using serve::server::ServerStats;

// A probability can never be negative, so an untouched output slot is
// distinguishable from every legitimate response.
constexpr double kSentinel = -1.0;

struct Fixture {
  Dataset data;
  FeaturePlan plan;
  gbdt::Booster booster;
  serve::RowScorer scorer;
  std::vector<std::vector<double>> rows;
  /// Serial RowScorer oracle, indexed like `rows`.
  std::vector<double> oracle;
};

Fixture MakeFixture(uint64_t seed) {
  Fixture f;
  f.data = testutil::MakePropertyDataset(seed);
  SafeParams params;
  params.seed = seed;
  SafeEngine engine(params);
  auto fit = engine.Fit(f.data);
  SAFE_CHECK(fit.ok()) << fit.status().ToString();
  f.plan = std::move(fit->plan);
  auto engineered = f.plan.Transform(f.data.x);
  SAFE_CHECK(engineered.ok()) << engineered.status().ToString();
  gbdt::GbdtParams gbdt_params;
  gbdt_params.seed = seed;
  gbdt_params.num_trees = 15;
  Dataset engineered_train{std::move(*engineered), f.data.y};
  auto booster = gbdt::Booster::Fit(engineered_train, nullptr, gbdt_params);
  SAFE_CHECK(booster.ok()) << booster.status().ToString();
  f.booster = std::move(*booster);
  auto scorer = serve::RowScorer::Create(f.plan, f.booster);
  SAFE_CHECK(scorer.ok()) << scorer.status().ToString();
  f.scorer = std::move(*scorer);
  for (size_t r = 0; r < f.data.num_rows(); ++r) {
    f.rows.push_back(f.data.x.Row(r));
  }
  f.oracle.resize(f.rows.size());
  for (size_t r = 0; r < f.rows.size(); ++r) {
    auto score = f.scorer.Score(f.rows[r]);
    SAFE_CHECK(score.ok()) << score.status().ToString();
    f.oracle[r] = *score;
  }
  return f;
}

std::unique_ptr<ScoringServer> MakeServer(const Fixture& f, size_t shards,
                                          size_t max_batch_rows,
                                          uint64_t max_wait_us,
                                          size_t queue_capacity = 1024) {
  ServerOptions options;
  options.num_shards = shards;
  options.queue_capacity = queue_capacity;
  options.batcher.max_batch_rows = max_batch_rows;
  options.batcher.max_wait_us = max_wait_us;
  auto server = ScoringServer::Create(f.plan, f.booster, options);
  SAFE_CHECK(server.ok()) << server.status().ToString();
  return std::move(*server);
}

bool SameBits(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(ServeServerTest, BitIdenticalAcrossShardCountsAndBatcherSettings) {
  Fixture f = MakeFixture(31);
  const size_t n = f.rows.size();
  struct BatcherCase {
    size_t max_rows;
    uint64_t max_wait_us;
  };
  // Immediate cuts (B=1), zero-wait time trigger, coalescing with a
  // short and with a long window: four very different cut-point
  // placements that must all be invisible in the outputs.
  const BatcherCase cases[] = {{1, 0}, {64, 0}, {4, 100}, {64, 500}};
  for (const size_t shards : {size_t{1}, size_t{2}, size_t{8}}) {
    for (const BatcherCase& bc : cases) {
      std::unique_ptr<ScoringServer> server =
          MakeServer(f, shards, bc.max_rows, bc.max_wait_us);
      // Four concurrent clients striped over the rows, so batches
      // actually coalesce rows from different requests.
      const size_t clients = 4;
      std::vector<double> got(n, kSentinel);
      std::vector<int> failures(clients, 0);
      std::vector<std::thread> threads;
      for (size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
          for (size_t r = c; r < n; r += clients) {
            auto score = server->Score(r, f.rows[r]);
            if (!score.ok()) {
              failures[c] += 1;
              return;
            }
            got[r] = *score;
          }
        });
      }
      for (std::thread& thread : threads) thread.join();
      for (size_t c = 0; c < clients; ++c) {
        ASSERT_EQ(failures[c], 0)
            << "shards=" << shards << " B=" << bc.max_rows
            << " T=" << bc.max_wait_us << " client " << c;
      }
      for (size_t r = 0; r < n; ++r) {
        ASSERT_TRUE(SameBits(f.oracle[r], got[r]))
            << "shards=" << shards << " B=" << bc.max_rows
            << " T=" << bc.max_wait_us << " row " << r;
      }
      server->Stop();
      const ServerStats stats = server->stats();
      EXPECT_EQ(stats.accepted_requests, n);
      EXPECT_EQ(stats.completed_requests, n);
      EXPECT_EQ(stats.completed_rows, n);
      EXPECT_EQ(stats.rejected_requests, 0u);
    }
  }
}

TEST(ServeServerTest, BatchRequestsBitIdenticalAtAnyChunkSize) {
  Fixture f = MakeFixture(32);
  const size_t n = f.rows.size();
  for (const size_t shards : {size_t{1}, size_t{2}, size_t{8}}) {
    std::unique_ptr<ScoringServer> server = MakeServer(f, shards, 64, 50);
    // Chunk sizes straddling the batcher's B and the scorer's block
    // size, ragged tails included.
    for (const size_t chunk : {size_t{1}, size_t{3}, size_t{17}, size_t{129},
                               n}) {
      std::vector<double> got(n, kSentinel);
      for (size_t begin = 0; begin < n; begin += chunk) {
        const size_t end = std::min(n, begin + chunk);
        const std::vector<std::vector<double>> rows(
            f.rows.begin() + static_cast<long>(begin),
            f.rows.begin() + static_cast<long>(end));
        std::vector<double> out;
        ASSERT_TRUE(server->ScoreBatch(begin, rows, &out).ok());
        ASSERT_EQ(out.size(), rows.size());
        for (size_t i = 0; i < out.size(); ++i) got[begin + i] = out[i];
      }
      for (size_t r = 0; r < n; ++r) {
        ASSERT_TRUE(SameBits(f.oracle[r], got[r]))
            << "shards=" << shards << " chunk=" << chunk << " row " << r;
      }
    }
  }
}

TEST(ServeServerTest, ConcurrentMixedLoadNoLossNoDuplication) {
  Fixture f = MakeFixture(33);
  const size_t n = f.rows.size();
  for (const size_t shards : {size_t{2}, size_t{8}}) {
    std::unique_ptr<ScoringServer> server = MakeServer(f, shards, 16, 100);
    // 8 clients, each alternating single-row and 5-row batch requests
    // over its stripe. Every row index is owned by exactly one request,
    // so the sentinel-initialized `got` array is a sequence-numbered
    // echo check: a dropped request leaves its sentinel behind, a
    // misrouted response writes the wrong bits for its slot.
    const size_t clients = 8;
    std::vector<double> got(n, kSentinel);
    std::vector<int> failures(clients, 0);
    std::vector<std::thread> threads;
    std::atomic<uint64_t> issued_requests{0};
    for (size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        size_t r = c * (n / clients);
        const size_t stop = (c + 1 == clients) ? n : (c + 1) * (n / clients);
        bool single = (c % 2) == 0;
        while (r < stop) {
          if (single) {
            auto score = server->Score(r, f.rows[r]);
            if (!score.ok()) {
              failures[c] += 1;
              return;
            }
            got[r] = *score;
            // lint: mo-ok(standalone tally, read only after the clients join)
            issued_requests.fetch_add(1, std::memory_order_relaxed);
            r += 1;
          } else {
            const size_t end = std::min(stop, r + 5);
            const std::vector<std::vector<double>> rows(
                f.rows.begin() + static_cast<long>(r),
                f.rows.begin() + static_cast<long>(end));
            std::vector<double> out;
            if (!server->ScoreBatch(r, rows, &out).ok() ||
                out.size() != rows.size()) {
              failures[c] += 1;
              return;
            }
            for (size_t i = 0; i < out.size(); ++i) got[r + i] = out[i];
            // lint: mo-ok(standalone tally, read only after the clients join)
            issued_requests.fetch_add(1, std::memory_order_relaxed);
            r = end;
          }
          single = !single;
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (size_t c = 0; c < clients; ++c) {
      ASSERT_EQ(failures[c], 0) << "shards=" << shards << " client " << c;
    }
    for (size_t r = 0; r < n; ++r) {
      ASSERT_TRUE(SameBits(f.oracle[r], got[r]))
          << "shards=" << shards << " row " << r;
    }
    server->Stop();
    const ServerStats stats = server->stats();
    EXPECT_EQ(stats.accepted_requests,
              // lint: mo-ok(clients joined above; final tally is visible)
              issued_requests.load(std::memory_order_relaxed));
    EXPECT_EQ(stats.completed_requests, stats.accepted_requests);
    EXPECT_EQ(stats.completed_rows, stats.accepted_rows);
    EXPECT_EQ(stats.accepted_rows, n);
    EXPECT_EQ(stats.rejected_requests, 0u);
    EXPECT_GT(stats.batches, 0u);
  }
}

TEST(ServeServerTest, SaturationRejectsCleanlyWithFullAccounting) {
  Fixture f = MakeFixture(34);
  const size_t n = f.rows.size();
  // A 2-slot queue on one shard whose batcher waits 1ms for co-riders:
  // while the worker coalesces, eight re-submitting clients overflow
  // admission, so rejections are the steady state rather than a timing
  // fluke. No retries — every rejection must be a clean kUnavailable
  // that leaves the caller's slot untouched.
  std::unique_ptr<ScoringServer> server =
      MakeServer(f, /*shards=*/1, /*max_batch_rows=*/128, /*max_wait_us=*/1000,
                 /*queue_capacity=*/2);
  const size_t clients = 8;
  const size_t per_client = 50;
  std::vector<std::vector<double>> got(clients,
                                       std::vector<double>(per_client,
                                                           kSentinel));
  std::vector<std::vector<size_t>> row_of(clients,
                                          std::vector<size_t>(per_client, 0));
  std::atomic<uint64_t> ok_count{0};
  std::atomic<uint64_t> rejected_count{0};
  std::atomic<uint64_t> wrong_status{0};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (size_t i = 0; i < per_client; ++i) {
        const size_t r = (c * per_client + i) % n;
        row_of[c][i] = r;
        auto score = server->Score(r, f.rows[r]);
        if (score.ok()) {
          got[c][i] = *score;
          // lint: mo-ok(standalone tally, read only after the clients join)
          ok_count.fetch_add(1, std::memory_order_relaxed);
        } else if (score.status().code() == StatusCode::kUnavailable) {
          // lint: mo-ok(standalone tally, read only after the clients join)
          rejected_count.fetch_add(1, std::memory_order_relaxed);
        } else {
          // lint: mo-ok(standalone tally, read only after the clients join)
          wrong_status.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  server->Stop();

  EXPECT_EQ(wrong_status.load(), 0u);
  const uint64_t submitted = clients * per_client;
  EXPECT_EQ(ok_count.load() + rejected_count.load(), submitted);
  // The tiny queue under 8 re-submitting clients must actually have
  // saturated — otherwise this test is not testing backpressure.
  EXPECT_GT(rejected_count.load(), 0u);
  EXPECT_GT(ok_count.load(), 0u);
  const ServerStats stats = server->stats();
  EXPECT_EQ(stats.accepted_requests, ok_count.load());
  EXPECT_EQ(stats.completed_requests, ok_count.load());
  EXPECT_EQ(stats.rejected_requests, rejected_count.load());
  // Echo check: accepted slots carry the oracle bits for their row,
  // rejected slots still carry the sentinel (output untouched).
  for (size_t c = 0; c < clients; ++c) {
    for (size_t i = 0; i < per_client; ++i) {
      const double value = got[c][i];
      if (SameBits(value, kSentinel)) continue;  // was rejected
      ASSERT_TRUE(SameBits(f.oracle[row_of[c][i]], value))
          << "client " << c << " request " << i;
    }
  }
}

TEST(ServeServerTest, LoneCallerIsNotHeldForCoRiders) {
  Fixture f = MakeFixture(39);
  const size_t n = f.rows.size();
  // One closed caller can never supply a co-rider for its own request.
  // A fixed T would hold every call for the full 200 ms (4 s in total);
  // the batcher may wait out T once to learn that, then cuts at once.
  constexpr uint64_t kWaitUs = 200000;
  std::unique_ptr<ScoringServer> server =
      MakeServer(f, /*shards=*/1, /*max_batch_rows=*/64, kWaitUs);
  const size_t calls = 20;
  [[maybe_unused]] const obs::MetricsSnapshot before =
      obs::MetricsRegistry::Global()->Snapshot();
  const auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < calls; ++i) {
    const size_t r = i % n;
    auto score = server->Score(r, f.rows[r]);
    ASSERT_TRUE(score.ok()) << score.status().ToString();
    ASSERT_TRUE(SameBits(f.oracle[r], *score)) << "call " << i;
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::microseconds(5 * kWaitUs));
  server->Stop();
  const ServerStats stats = server->stats();
  EXPECT_EQ(stats.completed_requests, calls);
#if SAFE_TELEMETRY_ENABLED
  // The server's own latency split shows where the time went: one wait
  // per request, all but the first far below T, and one compute
  // observation per batch.
  const obs::MetricsSnapshot after = obs::MetricsRegistry::Global()->Snapshot();
  // Observations `name` gained in the buckets bounded by `max_us`.
  const auto gained = [&](const std::string& name, double max_us) {
    const obs::HistogramSnapshot& now = after.histograms.at(name);
    const auto then = before.histograms.find(name);
    uint64_t count = 0;
    for (size_t i = 0; i < now.counts.size(); ++i) {
      if (i < now.upper_bounds.size() && now.upper_bounds[i] > max_us) break;
      count += now.counts[i];
      if (then != before.histograms.end()) count -= then->second.counts[i];
    }
    return count;
  };
  const double any = std::numeric_limits<double>::infinity();
  EXPECT_EQ(gained("serve.server.wait_us", any), calls);
  EXPECT_GE(gained("serve.server.wait_us", kWaitUs / 2.0), calls - 1);
  EXPECT_EQ(gained("serve.server.compute_us", any), stats.batches);
#endif
}

TEST(ServeServerTest, StopDrainsAcceptedAndRejectsNew) {
  Fixture f = MakeFixture(35);
  const size_t n = f.rows.size();
  std::unique_ptr<ScoringServer> server = MakeServer(f, 2, 32, 200);
  // Clients submit in a loop while the main thread stops the server
  // mid-flight: every response is either correct or a clean
  // kUnavailable, and afterwards accepted == completed (the drain
  // leaves nothing behind).
  const size_t clients = 6;
  std::atomic<uint64_t> wrong_status{0};
  std::atomic<uint64_t> wrong_bits{0};
  std::atomic<bool> go_stop{false};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (size_t i = 0; i < 400; ++i) {
        const size_t r = (c * 400 + i) % n;
        auto score = server->Score(r, f.rows[r]);
        if (score.ok()) {
          if (!SameBits(f.oracle[r], *score)) {
            // lint: mo-ok(standalone tally, read only after the clients join)
            wrong_bits.fetch_add(1, std::memory_order_relaxed);
          }
        } else if (score.status().code() != StatusCode::kUnavailable) {
          // lint: mo-ok(standalone tally, read only after the clients join)
          wrong_status.fetch_add(1, std::memory_order_relaxed);
        }
        if (i == 50 && c == 0) go_stop.store(true);
      }
    });
  }
  while (!go_stop.load()) std::this_thread::yield();
  server->Stop();
  // Stop is idempotent and "after Stop" always means fully drained.
  server->Stop();
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(wrong_status.load(), 0u);
  EXPECT_EQ(wrong_bits.load(), 0u);
  const ServerStats stats = server->stats();
  EXPECT_EQ(stats.completed_requests, stats.accepted_requests);
  EXPECT_EQ(stats.completed_rows, stats.accepted_rows);

  // Deterministic rejection: a stopped server refuses new work with
  // kUnavailable and leaves the caller's buffers untouched.
  auto after = server->Score(0, f.rows[0]);
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kUnavailable);
  std::vector<double> out{kSentinel};
  const Status batch_after =
      server->ScoreBatch(0, {f.rows[0]}, &out);
  EXPECT_EQ(batch_after.code(), StatusCode::kUnavailable);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(SameBits(out[0], kSentinel));
}

TEST(ServeServerTest, StopRacingSubmitNeverStrandsARequest) {
  // Targets the narrow shutdown window: a Submit passes its stopping_
  // check, Stop() flips stopping_, and an idle worker with an empty
  // queue evaluates its exit condition — all concurrently. If the
  // worker keyed its exit off stopping_ instead of queue.closed(), it
  // could exit before the Submit's push lands, stranding an accepted
  // request whose caller then blocks forever (this test would hang).
  // Churn the whole lifecycle many times with sparse traffic so workers
  // sit at the exit check with empty queues when Stop() races in.
  Fixture f = MakeFixture(37);
  const size_t n = f.rows.size();
#ifdef __SANITIZE_THREAD__
  const size_t lifecycles = 40;
#else
  const size_t lifecycles = 150;
#endif
  for (size_t iter = 0; iter < lifecycles; ++iter) {
    // B=1/T=0: the worker cuts every request immediately, so between
    // requests it is exactly at the exit-condition check.
    std::unique_ptr<ScoringServer> server = MakeServer(f, 2, 1, 0);
    const size_t clients = 3;
    std::atomic<uint64_t> wrong_status{0};
    std::atomic<uint64_t> wrong_bits{0};
    std::vector<std::thread> threads;
    for (size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        for (size_t i = 0; i < 8; ++i) {
          const size_t r = (iter * 31 + c * 8 + i) % n;
          auto score = server->Score(r, f.rows[r]);
          if (score.ok()) {
            if (!SameBits(f.oracle[r], *score)) {
              // lint: mo-ok(standalone tally, read only after the clients join)
            wrong_bits.fetch_add(1, std::memory_order_relaxed);
            }
          } else if (score.status().code() != StatusCode::kUnavailable) {
            // lint: mo-ok(standalone tally, read only after the clients join)
            wrong_status.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    // No handshake: Stop() races the very first submissions, and on
    // later iterations lands anywhere inside the 24-request burst.
    server->Stop();
    for (std::thread& thread : threads) thread.join();
    ASSERT_EQ(wrong_status.load(), 0u) << "iteration " << iter;
    ASSERT_EQ(wrong_bits.load(), 0u) << "iteration " << iter;
    const ServerStats stats = server->stats();
    ASSERT_EQ(stats.completed_requests, stats.accepted_requests)
        << "iteration " << iter;
    ASSERT_EQ(stats.completed_rows, stats.accepted_rows)
        << "iteration " << iter;
  }
}

TEST(ServeServerTest, RoundRobinOverloadsAndEdgeCases) {
  Fixture f = MakeFixture(36);
  std::unique_ptr<ScoringServer> server = MakeServer(f, 2, 8, 50);
  EXPECT_EQ(server->num_shards(), 2u);
  EXPECT_EQ(server->num_inputs(), f.rows[0].size());

  // Route-free overloads round-robin across shards; results identical.
  for (size_t r = 0; r < std::min<size_t>(f.rows.size(), 32); ++r) {
    auto score = server->Score(f.rows[r]);
    ASSERT_TRUE(score.ok());
    EXPECT_TRUE(SameBits(f.oracle[r], *score)) << "row " << r;
  }
  std::vector<std::vector<double>> some(f.rows.begin(), f.rows.begin() + 7);
  std::vector<double> out;
  ASSERT_TRUE(server->ScoreBatch(some, &out).ok());
  for (size_t r = 0; r < out.size(); ++r) {
    EXPECT_TRUE(SameBits(f.oracle[r], out[r]));
  }

  // Empty batch: OK, empty output, nothing enqueued.
  std::vector<double> empty_out{kSentinel};
  ASSERT_TRUE(server->ScoreBatch(0, {}, &empty_out).ok());
  EXPECT_TRUE(empty_out.empty());

  // Wrong-width rows are InvalidArgument, not Unavailable.
  const std::vector<double> narrow(f.rows[0].size() - 1, 0.0);
  auto bad = server->Score(0, narrow);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  const Status bad_batch = server->ScoreBatch(0, {f.rows[0], narrow}, &out);
  EXPECT_EQ(bad_batch.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(server->ScoreBatch(0, {f.rows[0]}, nullptr).code(),
            StatusCode::kInvalidArgument);

  // Zero-sized configuration fails Create outright.
  ServerOptions zero;
  zero.num_shards = 0;
  EXPECT_FALSE(ScoringServer::Create(f.plan, f.booster, zero).ok());
}

TEST(ServeServerTest, TelemetryServerSeriesDisjointFromLibrarySeries) {
#if SAFE_TELEMETRY_ENABLED
  Fixture f = MakeFixture(37);  // fixture oracle touches serve.latency_us
  const size_t n = f.rows.size();
  std::unique_ptr<ScoringServer> server = MakeServer(f, 2, 16, 100);

  const obs::MetricsSnapshot before = obs::MetricsRegistry::Global()->Snapshot();
  // Server traffic only between the snapshots: singles + one batch.
  const size_t singles = std::min<size_t>(n, 64);
  for (size_t r = 0; r < singles; ++r) {
    ASSERT_TRUE(server->Score(r, f.rows[r]).ok());
  }
  std::vector<std::vector<double>> batch(f.rows.begin(),
                                         f.rows.begin() + 10);
  std::vector<double> out;
  ASSERT_TRUE(server->ScoreBatch(1, batch, &out).ok());
  server->Stop();
  const obs::MetricsSnapshot after = obs::MetricsRegistry::Global()->Snapshot();

  const auto counter = [](const obs::MetricsSnapshot& snap,
                          const std::string& name) -> uint64_t {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  };
  const auto histogram_count = [](const obs::MetricsSnapshot& snap,
                                  const std::string& name) -> uint64_t {
    const auto it = snap.histograms.find(name);
    return it == snap.histograms.end() ? 0 : it->second.count;
  };

  // The serve.server.* namespace carries exactly the server traffic...
  EXPECT_EQ(counter(after, "serve.server.requests") -
                counter(before, "serve.server.requests"),
            singles + 1);
  EXPECT_EQ(counter(after, "serve.server.rows") -
                counter(before, "serve.server.rows"),
            singles + batch.size());
  const uint64_t batches_delta = counter(after, "serve.server.batches") -
                                 counter(before, "serve.server.batches");
  EXPECT_GT(batches_delta, 0u);
  EXPECT_EQ(histogram_count(after, "serve.server.latency_us") -
                histogram_count(before, "serve.server.latency_us"),
            singles + 1);
  EXPECT_EQ(histogram_count(after, "serve.server.batch_fill") -
                histogram_count(before, "serve.server.batch_fill"),
            batches_delta);
  EXPECT_EQ(histogram_count(after, "serve.server.queue_depth") -
                histogram_count(before, "serve.server.queue_depth"),
            batches_delta);

  // ...and the library-call series are untouched by server traffic: the
  // shard workers score through BatchScorer blocks, never through the
  // RowScorer entry points that feed serve.latency_us and friends.
  for (const char* name : {"serve.latency_us", "serve.batch_latency_us"}) {
    EXPECT_EQ(histogram_count(after, name), histogram_count(before, name))
        << name;
  }
  for (const char* name : {"serve.rows", "serve.batch_rows"}) {
    EXPECT_EQ(counter(after, name), counter(before, name)) << name;
  }
#else
  GTEST_SKIP() << "SAFE_TELEMETRY=OFF build: metric registry is a no-op";
#endif
}

TEST(ServeServerTest, StatsWorkWithoutTelemetry) {
  // ServerStats are plain atomics, independent of SAFE_TELEMETRY — the
  // no-loss accounting must hold in every build mode.
  Fixture f = MakeFixture(38);
  std::unique_ptr<ScoringServer> server = MakeServer(f, 1, 4, 50);
  const size_t requests = std::min<size_t>(f.rows.size(), 40);
  for (size_t r = 0; r < requests; ++r) {
    ASSERT_TRUE(server->Score(r, f.rows[r]).ok());
  }
  server->Stop();
  const ServerStats stats = server->stats();
  EXPECT_EQ(stats.accepted_requests, requests);
  EXPECT_EQ(stats.completed_requests, requests);
  EXPECT_EQ(stats.accepted_rows, requests);
  EXPECT_EQ(stats.completed_rows, requests);
  EXPECT_GT(stats.batches, 0u);
}

}  // namespace
}  // namespace safe
