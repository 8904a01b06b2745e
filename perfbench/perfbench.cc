// The repo benchmark driver: one process runs one workload and prints its
// metrics as the last line of standard output (one JSON object).
//
//   perfbench --workload fit|fit-spill|score-batch|serve-open --seed N
//             --seconds S --trace 0|1 [--spans PATH] [--smoke] [--mutate]
//
// --trace 0 measures the end-to-end metrics (no spans are recorded).
// --trace 1 is the separate traced run: spans are recorded here, in the
// benchmark's own code, around each call into a library layer, and the
// per-layer metrics are derived from them. Nothing inside src/ is
// instrumented for this.
//
// Every run checks the library's outputs. A failed check prints
// "correct": false and exits 1; it is never reported as a slow run.
// --mutate corrupts one reference output on purpose (a perturbed booster
// leaf, or an altered reference plan) so the benchmark's own tests can
// show that the checks catch a wrong output.
//
// --smoke shrinks every size so the whole matrix runs in seconds; the
// numbers it prints are not comparable with full-size runs.

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "src/common/random.h"
#include "src/common/thread_pool.h"
#include "src/core/combination.h"
#include "src/core/engine.h"
#include "src/core/feature_plan.h"
#include "src/core/operators.h"
#include "src/core/selection.h"
#include "src/data/synthetic.h"
#include "src/dataframe/dataframe.h"
#include "src/dataframe/spill.h"
#include "src/dataframe/split.h"
#include "src/gbdt/booster.h"
#include "src/gbdt/quantizer.h"
#include "src/obs/flight_recorder.h"
#include "src/serve/batch_scorer.h"
#include "src/serve/block_panel.h"
#include "src/serve/scorer.h"
#include "src/serve/server/scoring_server.h"
#include "src/stats/auc.h"

namespace {

using safe::Dataset;
using safe::DataFrame;
using safe::FeaturePlan;
using safe::Status;

// ------------------------------------------------------------ utilities

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double SecondsSince(uint64_t t0) {
  return static_cast<double>(NowNs() - t0) / 1e9;
}

/// CPUs this process may run on (what `nproc` prints).
size_t Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  // Failed requests enter as +inf; keep inf - inf out of the arithmetic.
  if (frac == 0.0 || v[hi] == v[lo]) return v[lo];
  return v[lo] + frac * (v[hi] - v[lo]);
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// Mean of the best tenth of `v` (at least one value): the highest values
/// when `higher_is_better`, else the lowest.
double BestDecileMean(std::vector<double> v, bool higher_is_better) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  if (higher_is_better) std::reverse(v.begin(), v.end());
  const size_t n = std::max<size_t>(1, v.size() / 10);
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) sum += v[i];
  return sum / static_cast<double>(n);
}

/// NaN-aware bitwise agreement (NaN payload bits are not contractual).
bool SameBits(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  uint64_t x = 0;
  uint64_t y = 0;
  std::memcpy(&x, &a, sizeof(x));
  std::memcpy(&y, &b, sizeof(y));
  return x == y;
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(2);
}

template <typename T>
T Unwrap(safe::Result<T> result, const char* what) {
  if (!result.ok()) Die(std::string(what) + ": " + result.status().ToString());
  return std::move(*result);
}

void Check(const Status& status, const char* what) {
  if (!status.ok()) Die(std::string(what) + ": " + status.ToString());
}

// ------------------------------------------------------------- tracing

/// One recorded interval. `parent` is 0 for a root; `request` is the
/// serve-open arrival index, or -1 when the span belongs to no request.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int64_t request = -1;
  double seconds() const { return static_cast<double>(end_ns - start_ns) / 1e9; }
};

/// In-memory span log of the traced run; written out when the run ends.
/// Single-threaded use only: serve-open clients fill their own vectors
/// and hand them over after joining.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_ns_(NowNs()) {}

  bool enabled() const { return enabled_; }
  uint64_t NextId() { return next_id_++; }

  /// Opens a span under the innermost open one; returns its id (0 when
  /// tracing is off).
  uint64_t Begin(const std::string& name) {
    if (!enabled_) return 0;
    Span span;
    span.id = NextId();
    span.parent = open_.empty() ? 0 : spans_[open_.back()].id;
    span.name = name;
    span.start_ns = NowNs();
    open_.push_back(spans_.size());
    spans_.push_back(std::move(span));
    return spans_.back().id;
  }

  /// Closes the innermost open span and returns it (an empty span when
  /// tracing is off).
  const Span& End() {
    if (!enabled_) return off_;
    Span& span = spans_[open_.back()];
    open_.pop_back();
    span.end_ns = NowNs();
    return span;
  }

  void Add(Span span) { spans_.push_back(std::move(span)); }

  bool Write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"origin_ns\":" << origin_ns_ << ",\"spans\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"id\":" << s.id
          << ",\"parent\":" << s.parent << ",\"name\":\"" << s.name
          << "\",\"start_ns\":" << (s.start_ns - origin_ns_)
          << ",\"end_ns\":" << (s.end_ns - origin_ns_);
      if (s.request >= 0) out << ",\"request\":" << s.request;
      out << "}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  bool enabled_;
  uint64_t origin_ns_;
  uint64_t next_id_ = 1;
  std::vector<Span> spans_;
  std::vector<size_t> open_;
  Span off_;
};

// -------------------------------------------------------------- output

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  bool mutate = false;
  std::string spans_path;
};

/// Per-layer values of a traced run; names not set read 0.
using Layers = std::map<std::string, double>;

/// What one run prints: the contract line plus human-readable lines.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  /// name -> (value, unit), in insertion order.
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  /// Named workload metrics (fit_rows_per_s, serve_p99_us.lo, ...) shown in
  /// the human table only; the contract line carries `metrics`.
  std::vector<std::pair<std::string, std::pair<double, std::string>>> named;
  /// Per-layer metrics of a traced run.
  Layers layers;

  void Fail(const std::string& message) {
    correct = false;
    errors.push_back(message);
  }
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void Name(const std::string& name, double value, const std::string& unit) {
    named.push_back({name, {value, unit}});
  }
};

std::string FormatNumber(double v) {
  // JSON has no infinity; an infinite latency (a failed request at that
  // percentile) prints as the largest double, never as a good value.
  if (std::isnan(v)) v = std::numeric_limits<double>::max();
  if (std::isinf(v)) v = v > 0 ? std::numeric_limits<double>::max()
                               : std::numeric_limits<double>::lowest();
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ------------------------------------------------------------ per-layer

const char* const kFitStages[] = {"miner", "mine",   "rank",  "generate",
                                  "iv",    "pearson", "ranker"};
const int kGridQps[] = {2000, 4000, 8000, 16000, 32000};
constexpr int kLoQps = 2000;
constexpr int kHiQps = 8000;

/// Every per-layer metric name and unit, in print order. Each traced run
/// prints all of them; a layer the workload does not exercise reads 0.
std::vector<std::pair<std::string, std::string>> PerLayerNames() {
  std::vector<std::pair<std::string, std::string>> out = {
      {"gbdt.miner_fit_s", "s"},       {"gbdt.paths", "count"},
      {"gbdt.quantize_s", "s"},        {"gbdt.ranker_fit_s", "s"},
      {"core.mine_s", "s"},            {"core.combinations", "count"},
      {"core.rank_s", "s"},            {"core.ranked", "count"},
      {"core.generate_s", "s"},        {"core.generated", "count"},
      {"core.selected", "count"},      {"stats.iv_s", "s"},
      {"stats.iv_kept_frac", "ratio"}, {"stats.pearson_s", "s"},
      {"stats.pearson_kept_frac", "ratio"},
      {"fit.unexplained_frac", "ratio"},
  };
  const std::pair<const char*, const char*> df[] = {
      {"dataframe.faults", "count"},
      {"dataframe.evictions", "count"},
      {"dataframe.spill_read_mib", "MiB"},
      {"dataframe.spill_write_mib", "MiB"}};
  for (const auto& [name, unit] : df) {
    out.push_back({name, unit});
    for (const char* stage : kFitStages) {
      out.push_back({std::string(name) + "." + stage, unit});
    }
  }
  const std::pair<const char*, const char*> serve[] = {
      {"serve.gather_ns_per_row", "ns"},
      {"serve.program_ns_per_row", "ns"},
      {"serve.forest_ns_per_row", "ns"},
      {"serve.link_ns_per_row", "ns"},
      {"serve.forest_ns_per_row.b1", "ns"},
      {"serve.program_row_ns", "ns"},
      {"serve.instructions", "count"},
      {"serve.trees", "count"},
      {"obs.armed_overhead_pct", "%"}};
  for (const auto& [name, unit] : serve) out.push_back({name, unit});
  const std::pair<const char*, const char*> server[] = {
      {"server.batch_fill_rows", "rows"},
      {"server.reject_frac", "ratio"},
      {"server.compute_us_at_fill", "us"},
      {"loadgen.late_p99_us", "us"},
      {"loadgen.p50_us", "us"},
      {"loadgen.p99_us", "us"}};
  for (const auto& [name, unit] : server) {
    for (const int qps : kGridQps) {
      out.push_back({std::string(name) + "." + std::to_string(qps), unit});
    }
  }
  out.push_back({"traced.rows_per_s", "1/s"});
  out.push_back({"traced.p50_us", "us"});
  out.push_back({"traced.tail_us", "us"});
  return out;
}

// -------------------------------------------------------------- setup

/// Runs `setup` `repeats` times and returns the median wall time in
/// seconds; the value built by the last repetition is kept in `out`.
/// Earlier results are destroyed before the next repetition starts.
template <typename T, typename Fn>
double TimedSetup(size_t repeats, T* out, Fn setup) {
  std::vector<double> times;
  for (size_t i = 0; i < repeats; ++i) {
    *out = T{};
    const uint64_t t0 = NowNs();
    *out = setup();
    times.push_back(SecondsSince(t0));
  }
  return Median(times);
}

constexpr size_t kFitSetupRepeats = 15;
constexpr size_t kServeSetupRepeats = 3;

/// Structure seed of the synthetic tasks. It fixes which features are
/// informative, which interact and how, so every workload is one fixed
/// task; --seed only draws which rows of it a run sees. A seed that also
/// re-drew the structure would change the plan, and with it the cost of
/// every layer, from run to run.
constexpr uint64_t kTaskSeed = 20200420;

/// Rows of the task `spec` (structure seed kTaskSeed): the first `fixed`
/// generated rows, then `n` distinct rows drawn by `seed`, in seed order,
/// from the next n + n/16. Two seeds share most rows: with a quarter of
/// the rows redrawn, the mined combinations, and with them the fit's
/// work, still moved by 20% from seed to seed.
Dataset SampleTask(safe::data::SyntheticSpec spec, size_t fixed, size_t n,
                   uint64_t seed) {
  spec.num_rows = fixed + n + n / 16;
  spec.seed = kTaskSeed;
  Dataset pool =
      Unwrap(safe::data::MakeSyntheticDataset(spec), "synthetic data");
  std::vector<size_t> drawn(n + n / 16);
  for (size_t r = 0; r < drawn.size(); ++r) drawn[r] = fixed + r;
  safe::Rng rng(seed);
  rng.Shuffle(&drawn);
  std::vector<size_t> rows(fixed);
  for (size_t r = 0; r < fixed; ++r) rows[r] = r;
  rows.insert(rows.end(), drawn.begin(), drawn.begin() + static_cast<long>(n));
  return safe::TakeDatasetRows(pool, rows);
}

// ================================================================ fit

struct FitConfig {
  size_t train_rows = size_t{32} << 10;
  size_t holdout_rows = size_t{8} << 10;
  size_t features = 32;
  /// Row group of the chunked copy; 32 features x 32Ki rows x 8 B is
  /// 8 MiB, and the resident budget is a quarter of it.
  size_t group_rows = size_t{16} << 10;
  size_t budget_bytes = size_t{2} << 20;

  static FitConfig For(bool smoke) {
    FitConfig c;
    if (smoke) {
      c.train_rows = size_t{8} << 10;
      c.holdout_rows = size_t{2} << 10;
      c.features = 16;
      c.group_rows = size_t{4} << 10;
      c.budget_bytes = c.train_rows * c.features * sizeof(double) / 4;
    }
    return c;
  }
};

struct FitData {
  Dataset train;
  Dataset holdout;
  std::shared_ptr<safe::SpillPool> pool;  // fit-spill only
  Dataset source;  // fit-spill only: the resident rows `train` was made from
};

/// Draws the rows and splits off the holdout (the draw is in random
/// order, so the split is a random partition).
FitData MakeFitData(const FitConfig& c, uint64_t seed) {
  safe::data::SyntheticSpec spec;
  spec.num_features = c.features;
  spec.num_informative = c.features / 2;
  spec.num_interactions = 3;
  Dataset all = SampleTask(spec, 0, c.train_rows + c.holdout_rows, seed);
  std::vector<size_t> train_idx(c.train_rows);
  std::vector<size_t> hold_idx(c.holdout_rows);
  for (size_t r = 0; r < c.train_rows; ++r) train_idx[r] = r;
  for (size_t r = 0; r < c.holdout_rows; ++r) hold_idx[r] = c.train_rows + r;
  FitData data;
  data.train = safe::TakeDatasetRows(all, train_idx);
  data.holdout = safe::TakeDatasetRows(all, hold_idx);
  return data;
}

/// Moves the training rows into a new pool. A pool keeps every group it
/// ever sealed, the fit's candidate columns included, so a pool shared by
/// all fits of a run would grow its backing file by one fit's candidates
/// (about 140 MiB at 32Ki rows) per fit; a pool per fit holds one fit.
void RenewSpillPool(const FitConfig& c, FitData* data) {
  data->train = Dataset{};
  data->pool.reset();  // closes the old backing file first
  safe::SpillPool::Options options;
  options.resident_budget_bytes = c.budget_bytes;
  options.dir = ".";  // the backing file stays inside the checkout
  data->pool = Unwrap(safe::SpillPool::Create(options), "spill pool");
  data->train = safe::ToChunkedDataset(data->source, data->pool, c.group_rows);
}

FitData MakeSpilledFitData(const FitConfig& c, uint64_t seed) {
  FitData resident = MakeFitData(c, seed);
  FitData data;
  data.source = std::move(resident.train);
  RenewSpillPool(c, &data);
  return data;
}

/// Half the cores: with a thread on every core of a shared machine, each
/// core another tenant takes stalls a fit's parallel loops at their
/// barriers (two busy cores slowed a 4-thread fit by 36%, a 2-thread fit
/// by 2%), and those stalls, not the fit, set the spread between runs.
safe::SafeParams FitParams() {
  safe::SafeParams params;
  params.n_threads = std::max<size_t>(1, Nproc() / 2);
  return params;
}

/// Holdout AUC of a fixed GBDT trained on the plan-transformed training
/// split. Deterministic for a given plan and data.
double PlanAuc(const FeaturePlan& plan, const FitData& data) {
  DataFrame train_z = Unwrap(plan.Transform(data.train.x), "transform train");
  DataFrame hold_z = Unwrap(plan.Transform(data.holdout.x), "transform holdout");
  safe::gbdt::GbdtParams params;
  params.n_threads = Nproc();
  Dataset engineered{std::move(train_z), data.train.y};
  safe::gbdt::Booster model = Unwrap(
      safe::gbdt::Booster::Fit(engineered, nullptr, params), "auc booster");
  std::vector<double> scores =
      Unwrap(model.PredictProba(hold_z), "auc predict");
  return Unwrap(safe::Auc(scores, data.holdout.labels()), "auc");
}

/// One corrupted character: what --mutate does to a reference plan.
std::string Corrupt(std::string text) {
  if (!text.empty()) text[text.size() / 2] ^= 1;
  return text;
}

struct FitOutcome {
  std::string plan_text;
  safe::IterationDiagnostics diag;
  double seconds = 0.0;
};

FitOutcome RunEngineFit(const Dataset& train) {
  safe::SafeEngine engine(FitParams());
  const uint64_t t0 = NowNs();
  safe::SafeFitResult fit = Unwrap(engine.Fit(train), "SafeEngine::Fit");
  FitOutcome out;
  out.seconds = SecondsSince(t0);
  out.plan_text = fit.plan.Serialize();
  if (!fit.iterations.empty()) out.diag = fit.iterations.front();
  return out;
}

// --- the traced replay of one SafeEngine::Fit, stage by stage ---

/// Name of a generated feature (mirrors the engine's naming, which the
/// plan format stores).
std::string FeatureName(const safe::Operator& op,
                        const std::vector<std::string>& parents) {
  if (op.arity() == 1) return op.name() + "(" + parents[0] + ")";
  if (op.arity() == 2 && op.symbol().size() <= 2 && op.symbol() != op.name()) {
    return "(" + parents[0] + op.symbol() + parents[1] + ")";
  }
  std::string out = op.name() + "(";
  for (size_t i = 0; i < parents.size(); ++i) {
    if (i > 0) out += ";";
    out += parents[i];
  }
  return out + ")";
}

struct ReplayCounts {
  size_t paths = 0;
  size_t combinations = 0;  // mined, before ranking
  size_t ranked = 0;        // IterationDiagnostics::num_combinations
  size_t generated = 0;
  size_t candidates = 0;
  size_t after_iv = 0;
  size_t after_pearson = 0;
  size_t selected = 0;
};

/// SpillPool::stats() delta around one stage.
struct PoolDelta {
  uint64_t faults = 0, evictions = 0, read = 0, write = 0;
};

class StageMeter {
 public:
  StageMeter(Tracer* tracer, const safe::SpillPool* pool, Layers* layers)
      : tracer_(tracer), pool_(pool), layers_(layers) {}

  /// Runs `fn` inside a span named `span`; adds its seconds to
  /// `seconds_metric` and its spill deltas to dataframe.*.<stage>.
  template <typename Fn>
  void Stage(const std::string& span, const char* stage,
             const std::string& seconds_metric, Fn fn) {
    const safe::SpillPoolStats before = Stats();
    tracer_->Begin(span);
    fn();
    const Span& done = tracer_->End();
    covered_s_ += done.seconds();
    (*layers_)[seconds_metric] += done.seconds();
    const safe::SpillPoolStats after = Stats();
    const double mib = 1024.0 * 1024.0;
    const std::pair<const char*, double> deltas[] = {
        {"dataframe.faults", static_cast<double>(after.faults - before.faults)},
        {"dataframe.evictions",
         static_cast<double>(after.evictions - before.evictions)},
        {"dataframe.spill_read_mib",
         static_cast<double>(after.spill_read_bytes - before.spill_read_bytes) /
             mib},
        {"dataframe.spill_write_mib",
         static_cast<double>(after.spill_write_bytes -
                             before.spill_write_bytes) /
             mib}};
    for (const auto& [name, value] : deltas) {
      (*layers_)[std::string(name) + "." + stage] += value;
      (*layers_)[name] += value;
    }
  }

  double covered_seconds() const { return covered_s_; }

 private:
  safe::SpillPoolStats Stats() const {
    return pool_ ? pool_->stats() : safe::SpillPoolStats{};
  }

  Tracer* tracer_;
  const safe::SpillPool* pool_;
  Layers* layers_;
  double covered_s_ = 0.0;
};

/// Repeats SafeEngine::Fit's single iteration through the public stage
/// functions, each call inside a span. Returns the funnel counts.
ReplayCounts ReplayFit(const FitData& data, Tracer* tracer, Layers* layers,
                       double* covered_s) {
  const safe::SafeParams params = FitParams();
  const Dataset& train = data.train;
  const size_t m = train.x.num_columns();
  const size_t gamma =
      params.gamma > 0 ? params.gamma : std::min<size_t>(4 * m, 1000);
  const size_t max_output =
      params.max_output_features > 0 ? params.max_output_features : 2 * m;
  safe::PoolSelection selection = safe::ResolvePool(params.n_threads);
  safe::ThreadPool* pool = selection.pool;
  safe::Rng rng(params.seed);
  StageMeter meter(tracer, data.pool.get(), layers);
  ReplayCounts counts;

  tracer->Begin("fit.replay");
  std::vector<safe::gbdt::TreePath> paths;
  meter.Stage("gbdt.miner_fit", "miner", "gbdt.miner_fit_s", [&] {
    safe::gbdt::GbdtParams miner = params.miner;
    miner.seed = rng.NextUint64();
    miner.n_threads = params.n_threads;
    safe::gbdt::Booster booster =
        Unwrap(safe::gbdt::Booster::Fit(train, nullptr, miner), "miner fit");
    paths = booster.ExtractAllPaths();
  });
  counts.paths = paths.size();

  std::vector<safe::FeatureCombination> combos;
  meter.Stage("core.mine", "mine", "core.mine_s", [&] {
    safe::CombinationMinerOptions options;
    options.max_arity = params.max_arity;
    combos = safe::MineCombinations(paths, options, pool);
  });
  counts.combinations = combos.size();
  meter.Stage("core.rank", "rank", "core.rank_s", [&] {
    combos = safe::RankCombinations(std::move(combos), train.x,
                                    train.labels(), gamma, pool);
  });
  counts.ranked = combos.size();

  DataFrame generated;
  meter.Stage("core.generate", "generate", "core.generate_s", [&] {
    const safe::OperatorRegistry registry = safe::OperatorRegistry::Default();
    std::vector<std::shared_ptr<const safe::Operator>> ops;
    for (const std::string& name : params.operator_names) {
      auto op = Unwrap(registry.Find(name), "operator");
      if (op->arity() <= params.max_arity) ops.push_back(std::move(op));
    }
    struct Task {
      const safe::Operator* op;
      std::vector<int> ordering;
      std::string name;
      bool ok = false;
      safe::Column column;
    };
    std::unordered_set<std::string> known;
    for (const std::string& name : train.x.ColumnNames()) known.insert(name);
    std::vector<Task> tasks;
    for (const auto& combo : combos) {
      for (const auto& op : ops) {
        if (op->arity() != combo.features.size()) continue;
        std::vector<std::vector<int>> orderings = {combo.features};
        if (!op->commutative() && combo.features.size() == 2) {
          orderings.push_back({combo.features[1], combo.features[0]});
        }
        for (auto& ordering : orderings) {
          std::vector<std::string> parents;
          for (int f : ordering) {
            parents.push_back(train.x.column(static_cast<size_t>(f)).name());
          }
          std::string name = FeatureName(*op, parents);
          if (known.count(name)) continue;
          tasks.push_back(Task{op.get(), std::move(ordering), std::move(name),
                               false, safe::Column()});
        }
      }
    }
    safe::ParallelFor(pool, 0, tasks.size(), [&](size_t t) {
      Task& task = tasks[t];
      std::vector<std::vector<double>> gathered;
      std::vector<const std::vector<double>*> parents;
      gathered.reserve(task.ordering.size());
      const safe::Column* chunked_parent = nullptr;
      for (int f : task.ordering) {
        const safe::Column& parent = train.x.column(static_cast<size_t>(f));
        if (parent.chunked()) {
          chunked_parent = &parent;
          gathered.push_back(parent.Gather());
          parents.push_back(&gathered.back());
        } else {
          parents.push_back(&parent.values());
        }
      }
      auto fitted = task.op->FitParams(parents);
      if (!fitted.ok()) return;
      auto values = safe::ApplyOperator(*task.op, *fitted, parents);
      if (!values.ok()) return;
      safe::Column column(task.name, std::move(*values));
      if (column.IsConstant() || column.CountMissing() == column.size()) {
        return;
      }
      if (chunked_parent != nullptr) {
        column = column.AsChunked(chunked_parent->chunks()->pool(),
                                  chunked_parent->chunks()->group_rows());
      }
      task.column = std::move(column);
      task.ok = true;
    });
    for (Task& task : tasks) {
      if (!task.ok) continue;
      if (!known.insert(task.name).second) continue;
      Check(generated.AddColumn(std::move(task.column)), "add column");
    }
  });
  counts.generated = generated.num_columns();

  Dataset candidates;
  candidates.x = Unwrap(train.x.Concat(generated), "candidate pool");
  candidates.y = train.y;
  counts.candidates = candidates.x.num_columns();

  std::vector<double> ivs;
  std::vector<size_t> after_iv;
  meter.Stage("stats.iv", "iv", "stats.iv_s", [&] {
    ivs = safe::ComputeIvs(candidates.x, candidates.labels(), params.iv_bins,
                           pool);
    after_iv = safe::IvFilterIndices(ivs, params.iv_threshold);
    if (after_iv.empty()) {
      after_iv.resize(candidates.x.num_columns());
      for (size_t c = 0; c < after_iv.size(); ++c) after_iv[c] = c;
    }
  });
  counts.after_iv = after_iv.size();

  std::vector<size_t> after_pearson;
  meter.Stage("stats.pearson", "pearson", "stats.pearson_s", [&] {
    after_pearson = safe::RedundancyFilterIndices(
        candidates.x, ivs, after_iv, params.pearson_threshold, pool);
  });
  counts.after_pearson = after_pearson.size();

  std::vector<size_t> selected;
  meter.Stage("gbdt.ranker_fit", "ranker", "gbdt.ranker_fit_s", [&] {
    safe::gbdt::GbdtParams ranker = params.ranker;
    ranker.seed = rng.NextUint64();
    ranker.n_threads = params.n_threads;
    selected = Unwrap(safe::ImportanceRankIndices(candidates, after_pearson,
                                                  ivs, ranker, max_output),
                      "importance rank");
  });
  counts.selected = selected.size();
  tracer->End();  // fit.replay
  *covered_s = meter.covered_seconds();

  // Not a stage of the fit: quantizing the whole candidate frame, the
  // step a histogram GBDT over all candidates would pay first.
  tracer->Begin("gbdt.quantize");
  {
    auto quantizer = Unwrap(safe::gbdt::FeatureQuantizer::Fit(
                                candidates.x, params.ranker.max_bins, pool),
                            "quantizer fit");
    auto binned = Unwrap(quantizer.Transform(candidates.x, pool),
                         "quantizer transform");
    (void)binned;
  }
  (*layers)["gbdt.quantize_s"] = tracer->End().seconds();
  return counts;
}

void RunFit(const Args& args, bool spill, Report* report, Tracer* tracer) {
  const FitConfig config = FitConfig::For(args.smoke);
  FitData data;
  const double setup_s = TimedSetup(kFitSetupRepeats, &data, [&] {
    return spill ? MakeSpilledFitData(config, args.seed)
                 : MakeFitData(config, args.seed);
  });
  const double rows = static_cast<double>(data.train.num_rows());
  // The rows of the next fit; in fit-spill, in a pool of their own
  // (untimed). spill_file_bytes is the largest backing file a pool used.
  size_t spill_file_bytes = 0;
  auto note_spill_file = [&] {
    if (data.pool) {
      spill_file_bytes =
          std::max(spill_file_bytes, data.pool->stats().file_bytes);
    }
  };
  auto fit_rows = [&]() -> const Dataset& {
    if (spill) {
      note_spill_file();
      RenewSpillPool(config, &data);
    }
    return data.train;
  };

  if (!args.trace) {
    // Warm-up fit (allocator first touch), discarded from the timing.
    const FitOutcome warm = RunEngineFit(fit_rows());
    std::string reference = warm.plan_text;
    if (args.mutate) reference = Corrupt(reference);
    std::vector<double> times;
    const uint64_t t0 = NowNs();
    size_t fits = 1;
    bool plans_agree = warm.plan_text == reference;
    while (times.size() < 3 || SecondsSince(t0) < args.seconds) {
      const FitOutcome fit = RunEngineFit(fit_rows());
      ++fits;
      times.push_back(fit.seconds);
      if (fit.plan_text != reference) plans_agree = false;
    }
    const double peak_rss = PeakRssMib();
    note_spill_file();
    report->attempted = fits;
    if (!plans_agree) {
      report->Fail("fits of the same rows produced different plans");
      report->failed = 1;
    }
    FitData resident_data;
    if (spill) {
      // Outside the timed region and after the peak RSS was read: the
      // spilled plan must equal the resident plan of the same rows.
      resident_data = MakeFitData(config, args.seed);
      std::string resident = RunEngineFit(resident_data.train).plan_text;
      if (args.mutate) resident = Corrupt(resident);
      ++report->attempted;
      if (resident != warm.plan_text) {
        report->Fail("spilled plan differs from the resident plan");
        ++report->failed;
      }
    } else {
      resident_data.train = data.train;
      resident_data.holdout = data.holdout;
    }
    const FeaturePlan plan =
        Unwrap(FeaturePlan::Deserialize(warm.plan_text), "plan deserialize");
    const double auc = PlanAuc(plan, resident_data);
    const double median_s = Median(times);
    // Throughput from the fastest fit: interference (other tenants, the
    // spill file's writeback) only ever slows a fit, and the fastest of
    // the run varied far less between runs than the median did. The
    // median fit is reported as p50_us.
    const double best_s = *std::min_element(times.begin(), times.end());
    report->Set("setup_s", setup_s, "s");
    report->Set("peak_rss_mib", peak_rss, "MiB");
    report->Set("rows_per_s", rows / best_s, "1/s");
    report->Set("p50_us", median_s * 1e6, "us");
    // Too few fits for a tail percentile; the tail a user meets is the
    // cold first fit of a process.
    report->Set("tail_us", warm.seconds * 1e6, "us");
    report->Set("auc", auc, "ratio");
    report->Name("setup_s", setup_s, "s");
    report->Name("peak_rss_mib", peak_rss, "MiB");
    report->Name("fit_rows_per_s", rows / median_s, "1/s");
    report->Name("fit_rows_per_s.fastest", rows / best_s, "1/s");
    if (!spill) report->Name("plan_auc", auc, "ratio");
    if (spill) {
      report->Name("spill_file_mib",
                   static_cast<double>(spill_file_bytes) / (1 << 20), "MiB");
    }
    report->Name("timed_fits", static_cast<double>(times.size()), "count");
    report->Name("cold_fit_s", warm.seconds, "s");
    for (size_t i = 0; i < times.size(); ++i) {
      report->Name("fit_s." + std::to_string(i), times[i], "s");
    }
    return;
  }

  // Traced run: the engine fit gives the reference funnel and the
  // untraced wall time; the replay then repeats it stage by stage.
  Layers layers;
  RunEngineFit(fit_rows());  // warm-up
  const FitOutcome engine = RunEngineFit(fit_rows());
  fit_rows();  // the replay's rows, in fit-spill in a pool of their own
  double covered_s = 0.0;
  const uint64_t t0 = NowNs();
  const ReplayCounts counts = ReplayFit(data, tracer, &layers, &covered_s);
  const double replay_s = SecondsSince(t0) - layers["gbdt.quantize_s"];
  report->attempted = 3;
  const safe::IterationDiagnostics& d = engine.diag;
  const std::pair<const char*, std::pair<size_t, size_t>> funnel[] = {
      {"combinations", {counts.ranked, d.num_combinations}},
      {"generated", {counts.generated, d.num_generated}},
      {"candidates", {counts.candidates, d.num_candidates}},
      {"after_iv", {counts.after_iv, d.num_after_iv}},
      {"after_pearson", {counts.after_pearson, d.num_after_redundancy}},
      {"selected", {counts.selected, d.num_selected}}};
  for (const auto& [what, pair] : funnel) {
    if (pair.first != pair.second) {
      report->Fail(std::string("replay funnel ") + what + " " +
                   std::to_string(pair.first) + " != engine " +
                   std::to_string(pair.second));
      report->failed = 1;
    }
  }
  layers["gbdt.paths"] = static_cast<double>(counts.paths);
  layers["core.combinations"] = static_cast<double>(counts.combinations);
  layers["core.ranked"] = static_cast<double>(counts.ranked);
  layers["core.generated"] = static_cast<double>(counts.generated);
  layers["core.selected"] = static_cast<double>(counts.selected);
  layers["stats.iv_kept_frac"] =
      static_cast<double>(counts.after_iv) /
      static_cast<double>(std::max<size_t>(1, counts.candidates));
  layers["stats.pearson_kept_frac"] =
      static_cast<double>(counts.after_pearson) /
      static_cast<double>(std::max<size_t>(1, counts.after_iv));
  layers["fit.unexplained_frac"] = 1.0 - covered_s / engine.seconds;
  layers["traced.rows_per_s"] = rows / replay_s;
  layers["traced.p50_us"] = replay_s * 1e6;
  layers["traced.tail_us"] = replay_s * 1e6;
  if (!spill) {
    // The dataframe layer, measured on fit: the same fit and replay on
    // the rows spilled to a pool a quarter of their size. Its own wall
    // times spread too widely on a shared machine for fit-spill to be a
    // bounded workload.
    FitData spilled;
    spilled.source = data.train;
    RenewSpillPool(config, &spilled);
    ++report->attempted;
    if (RunEngineFit(spilled.train).plan_text != engine.plan_text) {
      report->Fail("spilled plan differs from the resident plan");
      ++report->failed;
    }
    RenewSpillPool(config, &spilled);
    Layers spill_layers;
    double spill_covered_s = 0.0;
    ReplayFit(spilled, tracer, &spill_layers, &spill_covered_s);
    for (const auto& [name, value] : spill_layers) {
      if (name.rfind("dataframe.", 0) == 0) layers[name] = value;
    }
  }
  report->layers = std::move(layers);
}

// ========================================================= serving model

struct ServeConfig {
  size_t train_rows = 2000;
  size_t features = 24;
  size_t pool_rows = 16384;
  size_t batch_rows = 1024;

  static ServeConfig For(bool smoke) {
    ServeConfig c;
    if (smoke) {
      c.train_rows = 600;
      c.features = 12;
      c.pool_rows = 1024;
      c.batch_rows = 256;
    }
    return c;
  }
};

/// The served model: plan + GBDT fitted on the training rows, the row
/// pool that scoring draws from, and the holdout labels of that pool.
struct ServeModel {
  FeaturePlan plan;
  safe::gbdt::Booster booster;
  std::vector<std::vector<double>> rows;
  std::vector<double> labels;
};

ServeModel MakeServeModel(const ServeConfig& c, uint64_t seed) {
  safe::data::SyntheticSpec spec;
  spec.num_features = c.features;
  spec.num_informative = std::max<size_t>(1, c.features / 2);
  spec.num_interactions = 3;
  // The model is a fixture of the workload: it is fitted on the same
  // rows in every run, and --seed draws only the rows it scores.
  Dataset all = SampleTask(spec, c.train_rows, c.pool_rows, seed);
  std::vector<size_t> train_idx(c.train_rows);
  for (size_t r = 0; r < c.train_rows; ++r) train_idx[r] = r;
  Dataset train = safe::TakeDatasetRows(all, train_idx);

  safe::SafeParams params;
  params.n_threads = 1;
  ServeModel model;
  model.plan =
      Unwrap(safe::SafeEngine(params).Fit(train), "serve model fit").plan;
  DataFrame engineered = Unwrap(model.plan.Transform(train.x), "transform");
  safe::gbdt::GbdtParams gbdt;
  gbdt.n_threads = 1;
  Dataset engineered_train{std::move(engineered), train.y};
  model.booster = Unwrap(
      safe::gbdt::Booster::Fit(engineered_train, nullptr, gbdt), "gbdt fit");
  model.rows.reserve(c.pool_rows);
  for (size_t r = 0; r < c.pool_rows; ++r) {
    model.rows.push_back(all.x.Row(c.train_rows + r));
    model.labels.push_back(all.labels()[c.train_rows + r]);
  }
  return model;
}

/// The booster with its first leaf moved by a tiny amount: what
/// --mutate serves so the output checks have a wrong output to catch.
safe::gbdt::Booster PerturbOneLeaf(const safe::gbdt::Booster& booster) {
  std::istringstream in(booster.Serialize());
  std::ostringstream out;
  std::string line;
  bool done = false;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::vector<std::string> tok;
    for (std::string t; fields >> t;) tok.push_back(t);
    // Node lines: left right feature threshold value gain default_left.
    if (!done && tok.size() == 7 && tok[0] == "-1" && tok[1] == "-1") {
      const double value = std::strtod(tok[4].c_str(), nullptr);
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", value + 1e-3);
      tok[4] = buf;
      line.clear();
      for (size_t i = 0; i < tok.size(); ++i) line += (i ? " " : "") + tok[i];
      done = true;
    }
    out << line << "\n";
  }
  return Unwrap(safe::gbdt::Booster::Deserialize(out.str()), "perturbed booster");
}

/// Per-row oracle: FeaturePlan::TransformRow + Booster::PredictRowProba.
std::vector<double> NaiveScores(const ServeModel& model) {
  std::vector<double> out;
  out.reserve(model.rows.size());
  for (const auto& row : model.rows) {
    auto z = Unwrap(model.plan.TransformRow(row), "TransformRow");
    out.push_back(model.booster.PredictRowProba(z));
  }
  return out;
}

size_t CountMismatches(const std::vector<double>& got,
                       const std::vector<double>& want) {
  size_t bad = got.size() == want.size() ? 0 : 1;
  for (size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    if (!SameBits(got[i], want[i])) ++bad;
  }
  return bad;
}

double ModelAuc(const ServeModel& model, const std::vector<double>& scores) {
  return Unwrap(safe::Auc(scores, model.labels), "auc");
}

// ========================================================= score-batch

/// Per-row nanoseconds of each stage of the batch pipeline, from
/// 128-row blocks: gather -> program -> forest, and the residual of a
/// whole BatchScorer::ScoreBlockPtrs over those three.
void MeasureServeLayers(const ServeModel& model,
                        const safe::serve::BatchScorer& batch,
                        double seconds, Tracer* tracer, Layers* layers) {
  constexpr size_t kB = safe::serve::BatchScorer::kBlockRows;
  const size_t n_rows = model.rows.size();
  const size_t width = batch.num_inputs();
  const safe::serve::CompiledPlan& program = batch.plan();
  const safe::gbdt::PackedForest& forest = batch.forest();
  std::vector<double> panels(program.scratch_size() * kB);
  std::vector<double> margins(kB);
  std::vector<const double*> ptrs(n_rows);
  for (size_t r = 0; r < n_rows; ++r) ptrs[r] = model.rows[r].data();
  safe::serve::BatchScorer::Scratch scratch = batch.MakeScratch();
  std::vector<double> out(kB);
  const double base = model.booster.base_score();

  std::vector<double> gather_ns, program_ns, forest_ns, whole_ns;
  const uint64_t t_end = NowNs() + static_cast<uint64_t>(seconds * 1e9);
  bool first = true;
  while (first || NowNs() < t_end) {
    const uint64_t pass_span = tracer->Begin("serve.pass");
    uint64_t g = 0, p = 0, f = 0;
    for (size_t begin = 0; begin < n_rows; begin += kB) {
      const size_t n = std::min(kB, n_rows - begin);
      const uint64_t t0 = NowNs();
      safe::serve::GatherBlock(model.rows, begin, n, width, kB, panels.data());
      const uint64_t t1 = NowNs();
      program.ExecuteBlock(panels.data(), kB, n);
      const uint64_t t2 = NowNs();
      for (size_t i = 0; i < n; ++i) margins[i] = base;
      forest.AccumulateMargins(panels.data(), kB, n, margins.data());
      const uint64_t t3 = NowNs();
      g += t1 - t0;
      p += t2 - t1;
      f += t3 - t2;
      if (first && tracer->enabled()) {
        const std::pair<const char*, std::pair<uint64_t, uint64_t>> parts[] = {
            {"serve.gather", {t0, t1}},
            {"serve.program", {t1, t2}},
            {"serve.forest", {t2, t3}}};
        for (const auto& [name, se] : parts) {
          Span s;
          s.id = tracer->NextId();
          s.parent = pass_span;
          s.name = name;
          s.start_ns = se.first;
          s.end_ns = se.second;
          tracer->Add(s);
        }
      }
    }
    uint64_t whole = 0;
    for (size_t begin = 0; begin < n_rows; begin += kB) {
      const size_t n = std::min(kB, n_rows - begin);
      const uint64_t t0 = NowNs();
      batch.ScoreBlockPtrs(ptrs.data() + begin, n, &scratch, out.data());
      whole += NowNs() - t0;
    }
    tracer->End();
    const double rows = static_cast<double>(n_rows);
    gather_ns.push_back(static_cast<double>(g) / rows);
    program_ns.push_back(static_cast<double>(p) / rows);
    forest_ns.push_back(static_cast<double>(f) / rows);
    whole_ns.push_back(static_cast<double>(whole) / rows);
    first = false;
  }
  (*layers)["serve.gather_ns_per_row"] = Median(gather_ns);
  (*layers)["serve.program_ns_per_row"] = Median(program_ns);
  (*layers)["serve.forest_ns_per_row"] = Median(forest_ns);
  (*layers)["serve.link_ns_per_row"] =
      Median(whole_ns) - Median(gather_ns) - Median(program_ns) -
      Median(forest_ns);

  // One-row blocks through the forest, and the per-row program.
  tracer->Begin("serve.forest_b1");
  std::vector<double> b1_ns;
  for (int rep = 0; rep < 5; ++rep) {
    uint64_t total = 0;
    for (size_t r = 0; r < n_rows; ++r) {
      safe::serve::GatherBlock(model.rows, r, 1, width, kB, panels.data());
      program.ExecuteBlock(panels.data(), kB, 1);
      margins[0] = base;
      const uint64_t t0 = NowNs();
      forest.AccumulateMargins(panels.data(), kB, 1, margins.data());
      total += NowNs() - t0;
    }
    b1_ns.push_back(static_cast<double>(total) / static_cast<double>(n_rows));
  }
  tracer->End();
  (*layers)["serve.forest_ns_per_row.b1"] = Median(b1_ns);

  tracer->Begin("serve.program_row");
  std::vector<double> row_scratch(program.scratch_size());
  std::vector<double> row_out(program.num_outputs());
  std::vector<double> prog_ns;
  for (int rep = 0; rep < 5; ++rep) {
    const uint64_t t0 = NowNs();
    for (size_t r = 0; r < n_rows; ++r) {
      program.Execute(model.rows[r].data(), row_scratch.data(),
                      row_out.data());
    }
    prog_ns.push_back(static_cast<double>(NowNs() - t0) /
                      static_cast<double>(n_rows));
  }
  tracer->End();
  (*layers)["serve.program_row_ns"] = Median(prog_ns);
  (*layers)["serve.instructions"] =
      static_cast<double>(program.instructions().size());
  (*layers)["serve.trees"] = static_cast<double>(forest.num_trees());
}

struct ScorePassResult {
  double batch_rows_per_s = 0.0;
  double row_p50_us = 0.0;
  double row_p99_us = 0.0;
  size_t mismatches = 0;
};

/// One pass over the row pool through BatchScorer::ScoreRows in
/// `batch_rows` calls, then one through RowScorer::ScoreRow one row at a
/// time. Outputs are compared with `expected` outside the timed calls.
ScorePassResult ScorePass(
    const std::vector<std::vector<std::vector<double>>>& chunks,
    const ServeModel& model, const safe::serve::BatchScorer& batch,
    const safe::serve::RowScorer& scorer,
    safe::serve::RowScorer::Scratch* scratch,
    const std::vector<double>& expected, std::vector<uint64_t>* samples) {
  ScorePassResult result;
  std::vector<double> out;
  uint64_t batch_ns = 0;
  size_t offset = 0;
  for (const auto& chunk : chunks) {
    const uint64_t t0 = NowNs();
    Check(batch.ScoreRows(chunk, &out), "BatchScorer::ScoreRows");
    batch_ns += NowNs() - t0;
    for (size_t i = 0; i < out.size(); ++i) {
      if (!SameBits(out[i], expected[offset + i])) ++result.mismatches;
    }
    offset += chunk.size();
  }
  result.batch_rows_per_s =
      static_cast<double>(offset) / (static_cast<double>(batch_ns) / 1e9);
  samples->clear();
  for (size_t r = 0; r < model.rows.size(); ++r) {
    const uint64_t t0 = NowNs();
    const double v = scorer.ScoreRow(model.rows[r].data(), scratch);
    samples->push_back(NowNs() - t0);
    if (!SameBits(v, expected[r])) ++result.mismatches;
  }
  std::sort(samples->begin(), samples->end());
  const size_t n = samples->size();
  result.row_p50_us = static_cast<double>((*samples)[n / 2]) / 1e3;
  result.row_p99_us = static_cast<double>((*samples)[(n * 99) / 100]) / 1e3;
  return result;
}

void RunScoreBatch(const Args& args, Report* report, Tracer* tracer) {
  const ServeConfig config = ServeConfig::For(args.smoke);
  ServeModel model;
  const double setup_s = TimedSetup(kServeSetupRepeats, &model, [&] {
    return MakeServeModel(config, args.seed);
  });
  const safe::gbdt::Booster served =
      args.mutate ? PerturbOneLeaf(model.booster) : model.booster;
  const safe::serve::RowScorer scorer =
      Unwrap(safe::serve::RowScorer::Create(model.plan, served), "RowScorer");
  const safe::serve::BatchScorer batch = Unwrap(
      safe::serve::BatchScorer::Create(model.plan, served), "BatchScorer");
  safe::serve::RowScorer::Scratch scratch = scorer.MakeScratch();

  // The oracle: the interpreted per-row path of the unperturbed model.
  const std::vector<double> expected = NaiveScores(model);
  std::vector<std::vector<std::vector<double>>> chunks;
  for (size_t b = 0; b < model.rows.size(); b += config.batch_rows) {
    const size_t e = std::min(model.rows.size(), b + config.batch_rows);
    chunks.emplace_back(model.rows.begin() + static_cast<long>(b),
                        model.rows.begin() + static_cast<long>(e));
  }
  std::vector<uint64_t> samples;
  samples.reserve(model.rows.size());
  size_t mismatches = 0;
  // Warm-up pass: caches, the per-thread batch scratch.
  mismatches +=
      ScorePass(chunks, model, batch, scorer, &scratch, expected, &samples)
          .mismatches;
  size_t passes = 1;

  if (!args.trace) {
    std::vector<double> rps, p50, p99;
    const uint64_t t0 = NowNs();
    while (rps.size() < 5 || SecondsSince(t0) < args.seconds) {
      const ScorePassResult r =
          ScorePass(chunks, model, batch, scorer, &scratch, expected, &samples);
      ++passes;
      mismatches += r.mismatches;
      rps.push_back(r.batch_rows_per_s);
      p50.push_back(r.row_p50_us);
      p99.push_back(r.row_p99_us);
    }
    const double peak_rss = PeakRssMib();
    const double auc = ModelAuc(model, expected);
    // Passes are summarized by the mean of their least-disturbed tenth: on
    // a shared machine, interference only ever slows a pass, and the pass
    // median swung by 30% between runs while this tenth held within a few
    // percent.
    const double batch_rps = BestDecileMean(rps, true);
    const double row_p50 = BestDecileMean(p50, false);
    const double row_p99 = BestDecileMean(p99, false);
    report->Set("setup_s", setup_s, "s");
    report->Set("peak_rss_mib", peak_rss, "MiB");
    report->Set("rows_per_s", batch_rps, "1/s");
    report->Set("p50_us", row_p50, "us");
    report->Set("tail_us", row_p99, "us");
    report->Set("auc", auc, "ratio");
    report->Name("setup_s", setup_s, "s");
    report->Name("peak_rss_mib", peak_rss, "MiB");
    report->Name("batch_rows_per_s", batch_rps, "1/s");
    report->Name("row_p50_us", row_p50, "us");
    report->Name("row_p99_us", row_p99, "us");
    report->Name("passes", static_cast<double>(rps.size()), "count");
  } else {
    Layers layers;
    MeasureServeLayers(model, batch, args.seconds / 2, tracer, &layers);
    // Traced end-to-end figures, and the flight-recorder guard: whole
    // passes alternately armed and disarmed.
    const bool was_armed = safe::obs::FlightRecorder::armed();
    std::vector<double> armed_s, disarmed_s, rps, p50, p99;
    const uint64_t t0 = NowNs();
    for (size_t round = 0;
         round < 6 || SecondsSince(t0) < args.seconds / 2; ++round) {
      for (int half = 0; half < 2; ++half) {
        const bool arm = (half == 0) == (round % 2 == 0);
        if (arm) {
          safe::obs::FlightRecorder::Arm();
        } else {
          safe::obs::FlightRecorder::Disarm();
        }
        tracer->Begin(arm ? "score.pass.armed" : "score.pass.disarmed");
        const ScorePassResult r = ScorePass(chunks, model, batch, scorer,
                                            &scratch, expected, &samples);
        const double s = tracer->End().seconds();
        ++passes;
        mismatches += r.mismatches;
        (arm ? armed_s : disarmed_s).push_back(s);
        if (!arm) {
          rps.push_back(r.batch_rows_per_s);
          p50.push_back(r.row_p50_us);
          p99.push_back(r.row_p99_us);
        }
      }
    }
    if (!was_armed) safe::obs::FlightRecorder::Disarm();
    layers["obs.armed_overhead_pct"] =
        (Median(armed_s) / Median(disarmed_s) - 1.0) * 100.0;
    layers["traced.rows_per_s"] = BestDecileMean(rps, true);
    layers["traced.p50_us"] = BestDecileMean(p50, false);
    layers["traced.tail_us"] = BestDecileMean(p99, false);
    report->layers = std::move(layers);
  }
  report->attempted = passes * model.rows.size() * 2;
  report->failed = mismatches;
  if (mismatches > 0) {
    report->Fail(std::to_string(mismatches) +
                 " scored outputs differ from the per-row oracle");
  }
}

// ========================================================= serve-open

struct PhaseResult {
  int qps = 0;
  size_t due = 0;        // arrivals scheduled
  size_t sent = 0;       // arrivals actually sent
  size_t rejected = 0;   // kUnavailable
  size_t errors = 0;     // any other failed status
  size_t mismatches = 0; // responses that differ from the per-row result
  double p50_us = 0.0;
  double p99_us = 0.0;   // median over 1000-arrival windows
  double p99_clean_us = 0.0;  // mean of the lowest tenth of those windows
  double p50_clean_us = 0.0;  // likewise for the window p50s
  double last_p50_us = 0.0;
  double late_p99_us = 0.0;
  double completed_per_s = 0.0;
  double batch_fill_rows = 0.0;
  bool passed = false;
};

/// The p99 latency limit behind the max-rate metric. It applies to the
/// median of per-window p99s, so one scheduler stall on a shared machine
/// does not decide the rate, while a backlog that grows does.
constexpr double kP99LimitUs = 2000.0;
constexpr size_t kClients = 2;
/// A generator this far behind its schedule has a growing backlog; the
/// phase stops sending and fails. At 100 ms a stall of the shared machine
/// once ended a passing hi phase early and cut its completion rate by a
/// quarter; a second outlasts any such stall but not a real backlog.
constexpr uint64_t kGiveUpLateNs = 1000000000;
constexpr size_t kWindow = 1000;

PhaseResult RunPhase(const safe::serve::server::ScoringServer& server,
                     const ServeModel& model,
                     const std::vector<double>& expected, int qps,
                     double seconds, Tracer* tracer) {
  PhaseResult res;
  res.qps = qps;
  res.due = std::max<size_t>(1, static_cast<size_t>(qps * seconds));
  const double ns_per_req = 1e9 / qps;
  std::vector<uint64_t> latency(res.due, 0);
  std::vector<uint64_t> late(res.due, 0);
  std::vector<uint8_t> status(res.due, 0);  // 0 unsent 1 ok 2 rej 3 err 4 bad
  std::vector<std::vector<Span>> spans(kClients);
  const safe::serve::server::ServerStats before = server.stats();
  const uint64_t phase_span =
      tracer->Begin("loadgen.phase." + std::to_string(qps));
  const uint64_t start = NowNs() + 1000000;
  // The generator gives up on arrivals once it is this far behind.
  const uint64_t cutoff =
      start + static_cast<uint64_t>(seconds * 1.5e9) + 200000000;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      for (size_t i = c; i < res.due; i += kClients) {
        const uint64_t due =
            start + static_cast<uint64_t>(static_cast<double>(i) * ns_per_req);
        // Sleep only through long gaps and spin the last 2 ms: a sleeping
        // generator wakes late by whole scheduler ticks, which would be
        // charged to the server.
        for (;;) {
          const uint64_t now = NowNs();
          if (now >= due) break;
          if (due - now > 3000000) {
            std::this_thread::sleep_for(
                std::chrono::nanoseconds(due - now - 2000000));
          } else {
            std::this_thread::yield();
          }
        }
        const uint64_t sent = NowNs();
        if (sent > cutoff || sent - due > kGiveUpLateNs) break;
        const size_t r = i % model.rows.size();
        const safe::Result<double> proba = server.Score(i, model.rows[r]);
        const uint64_t done = NowNs();
        late[i] = sent - due;
        latency[i] = done - due;
        if (!proba.ok()) {
          status[i] =
              proba.status().code() == safe::StatusCode::kUnavailable ? 2 : 3;
        } else {
          status[i] = SameBits(*proba, expected[r]) ? 1 : 4;
        }
        if (tracer->enabled()) {
          Span s;
          s.parent = phase_span;
          s.name = "serve.request";
          s.start_ns = due;
          s.end_ns = done;
          s.request = static_cast<int64_t>(i);
          spans[c].push_back(s);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  tracer->End();
  for (auto& part : spans) {
    for (Span& s : part) {
      s.id = tracer->NextId();
      tracer->Add(std::move(s));
    }
  }
  const safe::serve::server::ServerStats after = server.stats();

  // A refused or failed request misses the latency limit: it enters the
  // percentiles as an infinite latency.
  std::vector<double> all_us, late_us, window_p50, window_p99, last_window;
  uint64_t last_done = start;
  for (size_t i = 0; i < res.due; ++i) {
    if (status[i] == 0) continue;
    ++res.sent;
    if (status[i] == 2) ++res.rejected;
    if (status[i] == 3) ++res.errors;
    if (status[i] == 4) ++res.mismatches;
    const double us = status[i] == 1 || status[i] == 4
                          ? static_cast<double>(latency[i]) / 1e3
                          : INFINITY;
    all_us.push_back(us);
    late_us.push_back(static_cast<double>(late[i]) / 1e3);
    const uint64_t due =
        start + static_cast<uint64_t>(static_cast<double>(i) * ns_per_req);
    last_done = std::max(last_done, due + latency[i]);
  }
  for (size_t w = 0; w < all_us.size(); w += kWindow) {
    const size_t e = std::min(all_us.size(), w + kWindow);
    if (e - w < kWindow && w > 0) break;  // a short tail window is dropped
    std::vector<double> win(all_us.begin() + static_cast<long>(w),
                            all_us.begin() + static_cast<long>(e));
    window_p50.push_back(Quantile(win, 0.5));
    window_p99.push_back(Quantile(win, 0.99));
  }
  const size_t tail = std::max<size_t>(1, all_us.size() / 10);
  last_window.assign(all_us.end() - static_cast<long>(tail), all_us.end());
  res.p50_us = Quantile(all_us, 0.5);
  res.p99_us = Median(window_p99);
  res.p99_clean_us = BestDecileMean(window_p99, /*higher_is_better=*/false);
  res.p50_clean_us = BestDecileMean(window_p50, /*higher_is_better=*/false);
  res.last_p50_us = Quantile(last_window, 0.5);
  res.late_p99_us = Quantile(late_us, 0.99);
  res.completed_per_s =
      static_cast<double>(res.sent - res.rejected - res.errors) /
      (static_cast<double>(last_done - start) / 1e9);
  const uint64_t batches = after.batches - before.batches;
  res.batch_fill_rows =
      batches ? static_cast<double>(after.completed_rows -
                                    before.completed_rows) /
                    static_cast<double>(batches)
              : 0.0;
  // Passing: every arrival sent, none refused, the windowed p99 within
  // the limit and no backlog left at the end of the phase.
  res.passed = res.sent == res.due && res.rejected == 0 && res.errors == 0 &&
               res.p99_us <= kP99LimitUs && res.last_p50_us <= kP99LimitUs;
  return res;
}

/// ScoreBlockPtrs timed offline at `fill` rows per block, in µs per call.
double ComputeAtFill(const safe::serve::BatchScorer& batch,
                     const ServeModel& model, double fill) {
  const size_t n = std::clamp<size_t>(static_cast<size_t>(std::lround(fill)),
                                      1, safe::serve::BatchScorer::kBlockRows);
  std::vector<const double*> ptrs;
  for (size_t i = 0; i < n; ++i) ptrs.push_back(model.rows[i].data());
  safe::serve::BatchScorer::Scratch scratch = batch.MakeScratch();
  std::vector<double> out(n);
  std::vector<double> per_call;
  for (int rep = 0; rep < 9; ++rep) {
    const int calls = 2000;
    const uint64_t t0 = NowNs();
    for (int k = 0; k < calls; ++k) {
      batch.ScoreBlockPtrs(ptrs.data(), n, &scratch, out.data());
    }
    per_call.push_back(static_cast<double>(NowNs() - t0) / 1e3 / calls);
  }
  return Median(per_call);
}

void RunServeOpen(const Args& args, Report* report, Tracer* tracer) {
  const ServeConfig config = ServeConfig::For(args.smoke);
  struct Setup {
    ServeModel model;
    std::unique_ptr<safe::serve::server::ScoringServer> server;
  };
  Setup setup;
  const double setup_s = TimedSetup(kServeSetupRepeats, &setup, [&] {
    Setup s;
    s.model = MakeServeModel(config, args.seed);
    safe::serve::server::ServerOptions options;
    options.num_shards = 2;
    options.batcher.max_batch_rows = 64;
    options.batcher.max_wait_us = 100;
    const safe::gbdt::Booster served =
        args.mutate ? PerturbOneLeaf(s.model.booster) : s.model.booster;
    s.server = Unwrap(
        safe::serve::server::ScoringServer::Create(s.model.plan, served,
                                                   options),
        "ScoringServer");
    return s;
  });
  const ServeModel& model = setup.model;
  // The per-row result each response must equal.
  const safe::serve::RowScorer scorer = Unwrap(
      safe::serve::RowScorer::Create(model.plan, model.booster), "RowScorer");
  safe::serve::RowScorer::Scratch scratch = scorer.MakeScratch();
  std::vector<double> expected;
  for (const auto& row : model.rows) {
    expected.push_back(scorer.ScoreRow(row.data(), &scratch));
  }
  const std::vector<double> naive = NaiveScores(model);
  size_t oracle_mismatch = CountMismatches(expected, naive);
  Tracer off(false);

  // Warm-up at the hi rate (first-touch faults, thread wake-up paths),
  // discarded.
  RunPhase(*setup.server, model, expected, kHiQps,
           std::max(0.1, args.seconds * 0.03), &off);
  // hi carries the bounded latency metrics, so it gets most of the run;
  // the other grid rates only decide serve_max_qps.
  std::vector<PhaseResult> phases;
  for (const int qps : kGridQps) {
    const double share = qps == kHiQps ? 0.55 : qps == kLoQps ? 0.2 : 0.25 / 3;
    phases.push_back(RunPhase(*setup.server, model, expected, qps,
                              std::max(0.2, args.seconds * share), tracer));
  }
  const double peak_rss = PeakRssMib();
  setup.server->Stop();

  size_t attempted = 0, failed = 0, mismatches = oracle_mismatch;
  const PhaseResult* lo = nullptr;
  const PhaseResult* hi = nullptr;
  const PhaseResult* best = nullptr;
  for (const PhaseResult& p : phases) {
    attempted += p.sent;
    failed += p.rejected + p.errors + p.mismatches;
    mismatches += p.mismatches;
    if (p.qps == kLoQps) lo = &p;
    if (p.qps == kHiQps) hi = &p;
    if (p.passed && (best == nullptr || p.qps > best->qps)) best = &p;
  }
  report->attempted = attempted;
  report->failed = failed;
  if (mismatches > 0) {
    report->Fail(std::to_string(mismatches) +
                 " server responses differ from the per-row result");
  }
  // The rate metric is the completion rate achieved at the highest grid
  // rate that passed. When none passed it falls back to the rate achieved
  // at the lowest grid rate, so it never reads 0; serve_max_qps.grid then
  // reads 0 in the table.
  const double max_qps =
      best ? best->completed_per_s : phases.front().completed_per_s;

  if (!args.trace) {
    report->Set("setup_s", setup_s, "s");
    report->Set("peak_rss_mib", peak_rss, "MiB");
    // serve_max_qps moves in steps of the grid, and on a shared 4-vCPU
    // machine the hi phase's p50 read 0.3-43 ms instead of 0.18 ms, and
    // its median window p99 2.2-2.6 ms instead of 0.2 ms, in 2-3 of 10
    // runs; the bounded metrics are the hi phase's completion rate and its
    // least-disturbed tenth of windows.
    report->Set("rows_per_s", hi->completed_per_s, "1/s");
    report->Set("p50_us", hi->p50_clean_us, "us");
    report->Set("tail_us", hi->p99_clean_us, "us");
    report->Set("auc", ModelAuc(model, expected), "ratio");
    report->Name("setup_s", setup_s, "s");
    report->Name("peak_rss_mib", peak_rss, "MiB");
    report->Name("serve_p50_us.lo", lo->p50_us, "us");
    report->Name("serve_p99_us.lo", lo->p99_us, "us");
    report->Name("serve_p50_us.hi", hi->p50_us, "us");
    report->Name("serve_p50_us.hi.clean", hi->p50_clean_us, "us");
    report->Name("serve_p99_us.hi", hi->p99_us, "us");
    report->Name("serve_p99_us.hi.clean", hi->p99_clean_us, "us");
    report->Name("serve_max_qps", max_qps, "1/s");
    report->Name("serve_max_qps.grid", best ? best->qps : 0, "1/s");
    for (const PhaseResult& p : phases) {
      const std::string q = "phase." + std::to_string(p.qps) + ".";
      report->Name(q + "p50_us", p.p50_us, "us");
      report->Name(q + "p99_us", p.p99_us, "us");
      report->Name(q + "late_p99_us", p.late_p99_us, "us");
      report->Name(q + "sent_frac",
                   static_cast<double>(p.sent) / static_cast<double>(p.due),
                   "ratio");
      report->Name(q + "completed_per_s", p.completed_per_s, "1/s");
      report->Name(q + "passed", p.passed ? 1 : 0, "bool");
    }
    return;
  }
  Layers layers;
  const safe::serve::BatchScorer batch = Unwrap(
      safe::serve::BatchScorer::Create(model.plan, model.booster), "batch");
  for (const PhaseResult& p : phases) {
    const std::string q = "." + std::to_string(p.qps);
    layers["server.batch_fill_rows" + q] = p.batch_fill_rows;
    layers["server.reject_frac" + q] =
        p.sent ? static_cast<double>(p.rejected) / static_cast<double>(p.sent)
               : 0.0;
    layers["server.compute_us_at_fill" + q] =
        p.batch_fill_rows > 0 ? ComputeAtFill(batch, model, p.batch_fill_rows)
                              : 0.0;
    layers["loadgen.late_p99_us" + q] = p.late_p99_us;
    layers["loadgen.p50_us" + q] = p.p50_us;
    layers["loadgen.p99_us" + q] = p.p99_us;
  }
  layers["traced.rows_per_s"] = max_qps;
  layers["traced.p50_us"] = hi->p50_us;
  layers["traced.tail_us"] = hi->p99_us;
  report->layers = std::move(layers);
}

// ================================================================ main

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string v;
    if (a == "--workload") {
      if (!value(&args->workload)) return false;
    } else if (a == "--seed") {
      if (!value(&v)) return false;
      args->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      if (!value(&v)) return false;
      args->seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      if (!value(&v)) return false;
      args->trace = v == "1";
    } else if (a == "--spans") {
      if (!value(&args->spans_path)) return false;
    } else if (a == "--smoke") {
      args->smoke = true;
    } else if (a == "--mutate") {
      args->mutate = true;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0.0;
}

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

void Print(const Args& args, const Report& report) {
  std::printf("provenance nproc=%zu compiler=\"%s\" build_type=%s "
              "SAFE_TELEMETRY=%d workload=%s seed=%llu seconds=%g trace=%d%s\n",
              Nproc(), __VERSION__, PERFBENCH_BUILD_TYPE,
              SAFE_TELEMETRY_ENABLED, args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, args.smoke ? " smoke" : "");
  for (const auto& [name, vu] : report.named) {
    std::printf("%-22s %-14s %s %s\n", args.workload.c_str(), name.c_str(),
                FormatNumber(vu.first).c_str(), vu.second.c_str());
  }
  for (const std::string& e : report.errors) {
    std::printf("CHECK FAILED: %s\n", e.c_str());
  }
  std::string line = "{\"correct\": ";
  line += report.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(report.attempted);
  line += ", \"failed\": " + std::to_string(report.failed);
  line += ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const std::string& name, double value,
                  const std::string& unit) {
    line += (first ? "" : ", ");
    line += "\"" + name + "\": {\"value\": " + FormatNumber(value) +
            ", \"unit\": \"" + unit + "\"}";
    first = false;
  };
  if (args.trace) {
    for (const auto& [name, unit] : PerLayerNames()) {
      auto it = report.layers.find(name);
      emit(name, it == report.layers.end() ? 0.0 : it->second, unit);
    }
  } else {
    for (const auto& [name, vu] : report.metrics) {
      emit(name, vu.first, vu.second);
    }
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload fit|fit-spill|score-batch|"
                 "serve-open --seed N --seconds S --trace 0|1 "
                 "[--spans PATH] [--smoke] [--mutate]\n");
    return 2;
  }
  // One malloc arena: with glibc's per-thread arenas the peak RSS of the
  // same multi-threaded fit flipped between two levels 18% apart from
  // run to run, depending on which thread freed what; with one arena it
  // repeats to within 0.1 MiB, and fit time did not change.
  mallopt(M_ARENA_MAX, 1);
  Tracer tracer(args.trace);
  Report report;
  if (args.workload == "fit") {
    RunFit(args, /*spill=*/false, &report, &tracer);
  } else if (args.workload == "fit-spill") {
    RunFit(args, /*spill=*/true, &report, &tracer);
  } else if (args.workload == "score-batch") {
    RunScoreBatch(args, &report, &tracer);
  } else if (args.workload == "serve-open") {
    RunServeOpen(args, &report, &tracer);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  if (args.trace && !args.spans_path.empty() &&
      !tracer.Write(args.spans_path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 args.spans_path.c_str());
    return 2;
  }
  Print(args, report);
  return report.correct ? 0 : 1;
}
