// delta_bench — end-to-end and per-layer measurement of the routing daemon's
// delta path, driven from outside through public calls only:
//
//   wire frame --BufferSource::next--> TopologyDelta --Daemon::apply-->
//   RibSolver::update (DynNet::apply, invalidate, relax, witness rebuild)
//   --> route-change diff --> events
//
// Load model: one closed-loop caller in one process. The next frame is pulled
// only when the previous Daemon::apply has returned, which is the loop
// Daemon::drain runs; a run models a daemon catching up on a backlog.
//
// Each workload is a fixed network and a stream of frames generated from
// --seed. A run first drains the whole stream once as the reference pass: it
// warms caches and the worker pool, records the event digest after every
// frame, and its end state is checked against one concatenated batch update
// and a cold solve. Measured passes then each bind a fresh engine and daemon
// (set-up samples) and drain the same stream until --seconds have passed;
// every frame's event digest must match the reference pass, and a pass that
// completes must end in the reference state.
//
//   --trace 0  untraced passes with obs off; prints the end-to-end metrics.
//   --trace 1  alternates untraced and traced passes. Traced passes turn obs
//              on and keep spans, in memory, around the calls into stream,
//              serve and rib; set-up keeps compile and serve bind spans and a
//              standalone DynNet replay keeps dyn spans. Prints the per-layer
//              metrics and a self-time table, and writes the spans as a
//              Chrome trace to --trace-out at exit.
//
// The last line of stdout is the result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status is 0 whenever that line is printed; `correct` carries the
// verdict. Bad arguments exit 2 without a result.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mrt/compile/engine.hpp"
#include "mrt/compile/simd.hpp"
#include "mrt/core/bases.hpp"
#include "mrt/core/combinators.hpp"
#include "mrt/dyn/delta.hpp"
#include "mrt/dyn/solver.hpp"
#include "mrt/graph/generators.hpp"
#include "mrt/obs/obs.hpp"
#include "mrt/par/par.hpp"
#include "mrt/rib/rib.hpp"
#include "mrt/serve/serve.hpp"
#include "mrt/sim/scenario.hpp"
#include "mrt/stream/stream.hpp"
#include "mrt/stream/wire.hpp"

namespace {

using namespace mrt;
using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              kEpoch)
      .count();
}

// --- inputs ------------------------------------------------------------------

/// Everything a pass needs. The network is fixed per workload; the frames
/// come from the workload seed, and the daemon sees only `bytes`, their wire
/// encoding.
struct Input {
  OrderTransform alg;
  LabeledGraph net;
  Value origin;
  std::vector<int> dests;
  std::vector<dyn::TopologyDelta> frames;
  std::vector<std::uint8_t> bytes;
};

/// Seed of every workload's network. Keeping the network fixed makes the
/// spread across seeds a measure of the program under different churn, not
/// of one random graph against another.
constexpr std::uint64_t kNetworkSeed = 0x5E18;

std::vector<int> spread_dests(int n, int k) {
  std::vector<int> d;
  for (int i = 0; i < k; ++i) {
    d.push_back(static_cast<int>((static_cast<long>(i) * n) / k));
  }
  return d;
}

/// Shortest path at the front, alternating widest/shortest below: the
/// deep-lex stack the repository's other benches call stacked(depth).
OrderTransform stacked(int depth) {
  OrderTransform alg = ot_shortest_path(6);
  for (int i = 1; i < depth; ++i) {
    alg = lex(alg, i % 2 == 0 ? ot_shortest_path(6) : ot_widest_path(6));
  }
  return alg;
}

Value stacked_origin(int depth) {
  Value v = Value::integer(0);
  for (int i = 1; i < depth; ++i) {
    v = Value::pair(std::move(v),
                    i % 2 == 0 ? Value::integer(0) : Value::inf());
  }
  return v;
}

int pick_below(Rng& rng, int n) {
  return static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
}

/// Down/up pairs on random arcs, so every frame changes one arc and every
/// pair leaves the topology as it found it. With `node_pairs`, 2 frames of
/// every 16 crash and restart a random node instead.
Input gao_rexford_flaps(std::uint64_t seed, int nodes, int extra,
                        std::vector<int> dests, int frames,
                        bool node_pairs) {
  Rng net_rng(kNetworkSeed);
  Scenario sc = gao_rexford_hierarchy(net_rng, nodes, extra);
  Input in{sc.alg, std::move(sc.net), sc.origin, std::move(dests), {}, {}};
  const int arcs = in.net.graph().num_arcs();
  Rng rng(seed);
  while (static_cast<int>(in.frames.size()) < frames) {
    dyn::TopologyDelta down;
    dyn::TopologyDelta up;
    if (node_pairs && in.frames.size() % 16 == 14) {
      const int v = pick_below(rng, nodes);
      down.node_down(v);
      up.node_up(v);
    } else {
      const int a = pick_below(rng, arcs);
      down.arc_down(a);
      up.arc_up(a);
    }
    in.frames.push_back(std::move(down));
    in.frames.push_back(std::move(up));
  }
  return in;
}

Input flap_input(std::uint64_t seed, int frames) {
  return gao_rexford_flaps(seed, 512, 384, spread_dests(512, 16), frames,
                           /*node_pairs=*/false);
}

Input all_dest_input(std::uint64_t seed, int frames) {
  std::vector<int> all(256);
  for (int v = 0; v < 256; ++v) all[static_cast<std::size_t>(v)] = v;
  return gao_rexford_flaps(seed, 256, 192, std::move(all), frames,
                           /*node_pairs=*/true);
}

/// 8 relabels per frame on distinct arcs, each to a label drawn from the
/// algebra's own family that differs from the arc's current label.
Input metric_churn_input(std::uint64_t seed, int frames) {
  constexpr int kDepth = 4;
  constexpr int kOps = 8;
  const OrderTransform alg = stacked(kDepth);
  Rng net_rng(kNetworkSeed);
  LabeledGraph net =
      label_randomly(alg, random_connected(net_rng, 512, 1024), net_rng);
  Input in{alg, std::move(net), stacked_origin(kDepth), spread_dests(512, 16),
           {}, {}};
  const int arcs = in.net.graph().num_arcs();
  Rng rng(seed);
  const ValueVec pool = alg.fns->sample_labels(rng, 64);
  std::vector<Value> cur;
  for (int a = 0; a < arcs; ++a) cur.push_back(in.net.label(a));
  for (int f = 0; f < frames; ++f) {
    dyn::TopologyDelta d;
    std::vector<int> picked;
    while (static_cast<int>(picked.size()) < kOps) {
      const int a = pick_below(rng, arcs);
      if (std::find(picked.begin(), picked.end(), a) != picked.end()) continue;
      const Value& l = rng.pick(pool);
      if (l == cur[static_cast<std::size_t>(a)]) continue;
      picked.push_back(a);
      cur[static_cast<std::size_t>(a)] = l;
      d.relabel(a, l);
    }
    in.frames.push_back(std::move(d));
  }
  return in;
}

struct Workload {
  const char* name;
  bool compiled;  ///< bind a compile::WeightEngine
  int frames;     ///< frames in the stream (3-7 s of draining)
  int window;     ///< frames per throughput window (~0.25 s)
  Input (*make)(std::uint64_t seed, int frames);
};

constexpr int kBinds = 3;  ///< set-up samples per measured pass

const Workload kWorkloads[] = {
    {"flap", true, 2048, 128, flap_input},
    {"metric-churn", true, 256, 16, metric_churn_input},
    {"all-dest", true, 512, 32, all_dest_input},
    {"flap-boxed", false, 2048, 128, flap_input},
};

// --- digests and checks ------------------------------------------------------

struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void byte(std::uint8_t b) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i32(int v) {
    const auto u = static_cast<std::uint32_t>(v);
    for (int i = 0; i < 4; ++i) byte(static_cast<std::uint8_t>(u >> (8 * i)));
  }
};

void digest_event(Fnv1a& f, const serve::RouteChange& ev) {
  f.u64(ev.update_index);
  f.i32(ev.column);
  f.i32(ev.dest);
  f.i32(ev.node);
  f.byte(ev.had_route ? 1 : 0);
  f.byte(ev.has_route ? 1 : 0);
  f.i32(ev.next_arc);
}

bool same_routing(const Routing& a, const Routing& b) {
  if (a.weight.size() != b.weight.size()) return false;
  for (std::size_t v = 0; v < a.weight.size(); ++v) {
    if (a.weight[v].has_value() != b.weight[v].has_value()) return false;
    if (a.weight[v] && !(*a.weight[v] == *b.weight[v])) return false;
    if (a.next_arc[v] != b.next_arc[v]) return false;
  }
  return true;
}

std::vector<Routing> tables(const rib::RibSolver& r) {
  std::vector<Routing> out;
  for (int c = 0; c < r.num_columns(); ++c) out.push_back(r.routing(c));
  return out;
}

bool same_tables(const std::vector<Routing>& a, const rib::RibSolver& r) {
  if (static_cast<int>(a.size()) != r.num_columns()) return false;
  for (int c = 0; c < r.num_columns(); ++c) {
    if (!same_routing(a[static_cast<std::size_t>(c)], r.routing(c))) {
      return false;
    }
  }
  return true;
}

/// Peak resident memory of this process image, from VmHWM. getrusage's
/// ru_maxrss is not used: Linux carries it across execve, so it would report
/// the launching process's footprint when that is larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

// --- spans -------------------------------------------------------------------

/// One traced interval. Spans of one delta share `delta`; `parent` indexes
/// the enclosing span (-1 for a root).
struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t dur_ns;
  int parent;
  std::int64_t delta;
};

/// Work counts recorded at the same boundary as a traced delta's spans.
struct DeltaCounts {
  std::uint64_t decode_calls = 0;
  std::uint64_t route_changes = 0;
  std::uint64_t relaxations = 0;
  std::int64_t affected = 0;
  bool cold = false;
};

// --- one pass ----------------------------------------------------------------

/// A bound daemon and the engine it points to; members are destroyed in
/// reverse order, so the daemon goes first.
struct Bound {
  std::unique_ptr<compile::WeightEngine> engine;
  std::unique_ptr<serve::Daemon> daemon;
  std::int64_t build_ns = 0;
  std::int64_t bind_ns = 0;
};

Bound bind_daemon(const Input& in, bool compiled, std::vector<Span>* spans) {
  Bound b;
  const std::int64_t t0 = now_ns();
  if (compiled) b.engine = std::make_unique<compile::WeightEngine>(in.alg);
  const std::int64_t t1 = now_ns();
  b.daemon = std::make_unique<serve::Daemon>(in.alg, b.engine.get());
  b.daemon->start(in.net, in.dests, in.origin);
  const std::int64_t t2 = now_ns();
  b.build_ns = compiled ? t1 - t0 : 0;
  b.bind_ns = t2 - t1;
  if (spans != nullptr) {
    if (compiled) spans->push_back({"compile.build", t0, b.build_ns, -1, -1});
    spans->push_back({"serve.bind", t1, b.bind_ns, -1, -1});
  }
  return b;
}

/// What one pass records. Null pointers record nothing.
struct PassOptions {
  std::int64_t deadline_ns = -1;  ///< stop pulling frames at this time
  /// Event digest after each frame: filled by the reference pass
  /// (`record_prefix`), checked frame by frame in every later pass.
  std::vector<std::uint64_t>* prefix = nullptr;
  bool record_prefix = false;
  int window = 0;  ///< frames per throughput window
  std::vector<double>* window_rates = nullptr;
  /// Per-frame latency samples, indexed by the frame's position.
  std::vector<std::vector<std::int64_t>>* latency_ns = nullptr;
  std::vector<Span>* spans = nullptr;  ///< traced pass: spans ...
  std::vector<DeltaCounts>* counts = nullptr;  ///< ... and work counts
};

struct Drain {
  std::int64_t drain_ns = 0;  ///< first next() to last apply() return
  std::uint64_t applied = 0;
  std::uint64_t failed = 0;  ///< threw, fell back to cold, or bad frame
  bool decode_error = false;
  bool diverged = false;  ///< an event digest differed from the reference
  std::uint64_t route_changes = 0;
  std::uint64_t digest = 0;
};

/// Drains `bytes` through the daemon, one closed-loop delta at a time.
Drain drain(serve::Daemon& daemon, const std::vector<std::uint8_t>& bytes,
            const PassOptions& o) {
  Fnv1a fnv;
  Drain r;
  const serve::Daemon::ChangeSink sink = [&fnv](const serve::RouteChange& ev) {
    digest_event(fnv, ev);
  };
  const bool traced = o.spans != nullptr;
  obs::Histogram& rib_hist = obs::registry().histogram("dyn.rib.update_ns");
  obs::Counter& decodes = obs::registry().counter("compile.decode_calls");
  stream::BufferSource src(bytes);
  std::int64_t first = -1;
  std::int64_t last = 0;
  std::int64_t window_start = 0;
  for (;;) {
    const std::int64_t t0 = now_ns();
    if (o.deadline_ns >= 0 && t0 >= o.deadline_ns) break;
    std::optional<dyn::TopologyDelta> d = src.next();
    const std::int64_t t1 = traced ? now_ns() : 0;
    if (!d) break;
    if (first < 0) first = t0;
    if (o.window > 0 && r.applied % static_cast<std::uint64_t>(o.window) == 0) {
      window_start = t0;
    }
    const std::uint64_t rib0 = traced ? rib_hist.sum() : 0;
    const std::uint64_t dec0 = traced ? decodes.value() : 0;
    std::size_t changes = 0;
    bool threw = false;
    try {
      changes = daemon.apply(*d, sink);
    } catch (const std::exception& e) {
      std::cerr << "delta_bench: apply threw at frame " << r.applied << ": "
                << e.what() << "\n";
      threw = true;
    }
    last = now_ns();
    if (o.latency_ns != nullptr) {
      (*o.latency_ns)[r.applied].push_back(last - t0);
    }
    const rib::RibStats& st = daemon.rib().last_update();
    if (threw || st.cold) ++r.failed;
    r.route_changes += changes;
    if (o.record_prefix) {
      o.prefix->push_back(fnv.h);
    } else if (o.prefix != nullptr &&
               (r.applied >= o.prefix->size() ||
                (*o.prefix)[r.applied] != fnv.h)) {
      r.diverged = true;
    }
    if (traced) {
      const auto delta = static_cast<std::int64_t>(r.applied);
      const int root = static_cast<int>(o.spans->size());
      const auto rib_ns = static_cast<std::int64_t>(rib_hist.sum() - rib0);
      o.spans->push_back({"delta", t0, last - t0, -1, delta});
      o.spans->push_back({"stream.next", t0, t1 - t0, root, delta});
      o.spans->push_back({"serve.apply", t1, last - t1, root, delta});
      // The rib span's length is exact (the histogram's sum moved by it);
      // its start is placed at the top of apply(), where update() runs.
      o.spans->push_back({"rib.update", t1, rib_ns, root + 2, delta});
      o.counts->push_back({decodes.value() - dec0, changes, st.relaxations,
                           st.affected_total(), st.cold});
    }
    ++r.applied;
    if (o.window_rates != nullptr &&
        r.applied % static_cast<std::uint64_t>(o.window) == 0) {
      o.window_rates->push_back(static_cast<double>(o.window) * 1e9 /
                                static_cast<double>(last - window_start));
    }
  }
  r.drain_ns = first < 0 ? 0 : last - first;
  if (!src.error().empty()) {
    std::cerr << "delta_bench: decode error: " << src.error() << "\n";
    r.decode_error = true;
    ++r.failed;
  }
  r.digest = fnv.h;
  return r;
}

/// stream ≡ batch ≡ cold on the bytes just drained: one concatenated batch
/// update and a cold re-solve of the end state must match `got` exactly.
bool check_batch_and_cold(const Input& in, const compile::WeightEngine* eng,
                          const std::vector<Routing>& got) {
  dyn::TopologyDelta all;
  for (const dyn::TopologyDelta& d : in.frames) {
    all.ops.insert(all.ops.end(), d.ops.begin(), d.ops.end());
  }
  rib::RibSolver batch(in.alg, eng);
  batch.solve(in.net, in.dests, in.origin);
  batch.update(all);
  rib::RibSolver cold(in.alg, eng);
  cold.solve(in.net, in.dests, in.origin);
  const bool before = dyn::enabled();
  dyn::set_enabled(false);
  cold.update(all);
  dyn::set_enabled(before);
  // A batch whose ops cancel out changes nothing, and then the freshly
  // solved table already is the cold solve of the end state.
  const rib::RibStats& cs = cold.last_update();
  const bool ok_batch = same_tables(got, batch);
  const bool ok_cold =
      (cs.cold || cs.changed_arcs == 0) && same_tables(got, cold);
  if (!ok_batch) std::cerr << "delta_bench: stream and batch tables differ\n";
  if (!ok_cold) std::cerr << "delta_bench: stream and cold tables differ\n";
  return ok_batch && ok_cold;
}

// --- statistics and output ---------------------------------------------------

/// Exact nearest-rank order statistic of raw samples.
template <typename T>
double order_stat(std::vector<T> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return static_cast<double>(v[std::min(i, v.size() - 1)]);
}

double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::string json_str(const char* s) {
  return s == nullptr ? "null" : "\"" + std::string(s) + "\"";
}

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

std::string stamp_json(const Workload& w, std::uint64_t seed, bool trace) {
  const char* toggles[] = {"MRT_THREADS", "MRT_SIMD", "MRT_COMPILE", "MRT_DYN",
                           "MRT_JOURNAL"};
  std::string s = "{\"workload\": \"" + std::string(w.name) +
                  "\", \"seed\": " + std::to_string(seed) +
                  ", \"trace\": " + (trace ? "1" : "0") +
                  ", \"nproc\": " + std::to_string(par::hardware_threads()) +
                  ", \"threads\": " + std::to_string(par::thread_limit()) +
                  ", \"simd_isa\": " + json_str(compile::simd::active_isa()) +
                  ", \"simd_enabled\": " +
                  (compile::simd::enabled() ? "true" : "false") +
                  ", \"build_type\": \"" DELTABENCH_BUILD_TYPE "\"";
  for (const char* t : toggles) {
    s += ", \"" + std::string(t) + "\": " + json_str(std::getenv(t));
  }
  return s + "}";
}

void write_trace(const std::string& path, const std::vector<Span>& spans,
                 const std::string& stamp) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "delta_bench: cannot write " << path << "\n";
    return;
  }
  out << "{\"otherData\": " << stamp << ",\n\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\": \"" << s.name
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
        << num(static_cast<double>(s.start_ns) / 1e3)
        << ", \"dur\": " << num(static_cast<double>(s.dur_ns) / 1e3)
        << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
        << ", \"delta\": " << s.delta << "}}";
  }
  out << "\n]}\n";
}

struct SelfTime {
  const char* name;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
  std::uint64_t count = 0;
};

/// Aggregates spans by name: total duration, and self time = duration minus
/// what the span's direct children cover.
std::vector<SelfTime> self_times(const std::vector<Span>& spans) {
  std::vector<SelfTime> out;
  auto slot = [&out](const char* name) -> SelfTime& {
    for (SelfTime& s : out) {
      if (std::strcmp(s.name, name) == 0) return s;
    }
    out.push_back({name});
    return out.back();
  };
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.dur_ns;
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SelfTime& t = slot(spans[i].name);
    t.total_ns += spans[i].dur_ns;
    t.self_ns += spans[i].dur_ns - child_ns[i];
    ++t.count;
  }
  return out;
}

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;
};

std::optional<Args> parse(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    try {
      if (k == "--workload") {
        for (const Workload& w : kWorkloads) {
          if (v == w.name) a.workload = &w;
        }
      } else if (k == "--seed") {
        a.seed = std::stoull(v);
        have_seed = true;
      } else if (k == "--seconds") {
        a.seconds = std::stod(v);
      } else if (k == "--trace") {
        if (v != "0" && v != "1") return std::nullopt;
        a.trace = v == "1";
      } else if (k == "--trace-out") {
        a.trace_out = v;
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || a.workload == nullptr || !have_seed ||
      !(a.seconds > 0.0)) {
    return std::nullopt;
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> parsed = parse(argc, argv);
  if (!parsed) {
    std::cerr << "usage: delta_bench --workload <";
    for (const Workload& w : kWorkloads) std::cerr << w.name << "|";
    std::cerr << "> --seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-out <file>]\n";
    return 2;
  }
  const Args args = *parsed;
  const Workload& w = *args.workload;
  // One worker for every workload: with two, the tail of all-dest followed
  // whichever core the second worker shared with other tenants, and its p99
  // spread over ten seeds reached 0.33 against 0.13 with one.
  par::set_thread_limit(1);

  Input in = w.make(args.seed, w.frames);
  in.bytes = stream::encode_stream(in.frames);

  // Untraced measured passes: latency samples per frame, window rates.
  std::vector<std::vector<std::int64_t>> latency_ns(in.frames.size());
  std::vector<double> window_rates;
  std::vector<std::int64_t> setup_ns;    // build + bind, measured passes
  std::vector<std::int64_t> build_ns;
  std::vector<std::int64_t> bind_ns;
  std::vector<Span> spans;
  std::vector<DeltaCounts> counts;
  std::vector<std::uint64_t> prefix;
  std::int64_t plain_ns = 0;
  std::int64_t traced_ns = 0;
  std::uint64_t plain_deltas = 0;
  std::uint64_t traced_deltas = 0;
  int plain_passes = 0;
  int traced_passes = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  auto account = [&](const Drain& d) {
    attempted += d.applied + (d.decode_error ? 1 : 0);
    failed += d.failed;
  };

  // Reference pass: untimed, obs off.
  obs::set_enabled(false);
  std::optional<Bound> b;
  b.emplace(bind_daemon(in, w.compiled, nullptr));
  const bool compiled = b->daemon->rib().batched_flat();
  PassOptions ro;
  ro.prefix = &prefix;
  ro.record_prefix = true;
  const Drain rd = drain(*b->daemon, in.bytes, ro);
  account(rd);
  // Peak memory of the drained daemon, before the references are built.
  const double rss_mb = peak_rss_mb();
  const std::vector<Routing> ref_tables = tables(b->daemon->rib());
  bool correct = rd.applied == in.frames.size() &&
                 check_batch_and_cold(in, b->engine.get(), ref_tables);

  const std::int64_t t_begin = now_ns();
  const std::int64_t deadline =
      t_begin + static_cast<std::int64_t>(args.seconds * 1e9);
  for (int p = 0;; ++p) {
    const bool traced = args.trace && p % 2 == 1;
    // The first pass of each kind runs to the end of the stream; the rest
    // stop at the deadline.
    const bool first_of_kind = (traced ? traced_passes : plain_passes) == 0;
    if (!first_of_kind && now_ns() >= deadline) break;
    obs::set_enabled(traced);
    // Set-up takes tens of ms, so each pass binds kBinds times for steady
    // samples and drains through the last binding.
    for (int i = 0; i < kBinds; ++i) {
      b.reset();
      b.emplace(bind_daemon(in, w.compiled, traced ? &spans : nullptr));
      setup_ns.push_back(b->build_ns + b->bind_ns);
      build_ns.push_back(b->build_ns);
      bind_ns.push_back(b->bind_ns);
    }
    PassOptions o;
    o.deadline_ns = first_of_kind ? -1 : deadline;
    o.prefix = &prefix;
    if (traced) {
      o.spans = &spans;
      o.counts = &counts;
    } else {
      o.window = w.window;
      o.window_rates = &window_rates;
      o.latency_ns = &latency_ns;
    }
    const Drain d = drain(*b->daemon, in.bytes, o);
    obs::set_enabled(false);
    account(d);
    (traced ? traced_ns : plain_ns) += d.drain_ns;
    (traced ? traced_deltas : plain_deltas) += d.applied;
    ++(traced ? traced_passes : plain_passes);
    const bool complete = d.applied == in.frames.size();
    const bool repeated =
        !d.diverged &&
        (!complete || (d.digest == rd.digest &&
                       d.route_changes == rd.route_changes &&
                       same_tables(ref_tables, b->daemon->rib())));
    if (!repeated) {
      std::cerr << "delta_bench: pass " << p
                << " did not repeat the reference pass\n";
      correct = false;
    }
  }
  correct = correct && failed == 0;

  const std::string stamp = stamp_json(w, args.seed, args.trace);
  std::cout << "delta_bench.stamp " << stamp << "\n";
  std::cout << "delta_bench " << w.name << " seed=" << args.seed
            << " frames=" << in.frames.size() << " flat=" << (compiled ? 1 : 0)
            << " passes=" << plain_passes << " untraced + " << traced_passes
            << " traced\n"
            << "  reference pass: " << rd.route_changes
            << " route changes, event digest " << std::hex << "0x" << rd.digest
            << std::dec << "\n"
            << "  check: every update warm, stream == batch == cold, passes "
               "repeat the reference: "
            << (correct ? "ok" : "FAILED") << "\n";

  std::vector<Metric> metrics;
  if (!args.trace) {
    const double failed_frac =
        ratio(static_cast<double>(failed), static_cast<double>(attempted));
    // Every pass replays the same frames from the same state, so a frame's
    // samples measure the same work; their median drops the stalls a busy
    // host adds to single samples. Percentiles run over the frames.
    std::vector<std::int64_t> frame_ns;
    std::size_t samples = 0;
    for (const std::vector<std::int64_t>& v : latency_ns) {
      if (v.empty()) continue;
      frame_ns.push_back(static_cast<std::int64_t>(order_stat(v, 0.5)));
      samples += v.size();
    }
    metrics = {
        {"deltas_per_s", order_stat(window_rates, 0.50), "1/s"},
        {"delta_p50_us", order_stat(frame_ns, 0.50) / 1e3, "us"},
        {"delta_p99_us", order_stat(frame_ns, 0.99) / 1e3, "us"},
        {"setup_s", order_stat(setup_ns, 0.50) / 1e9, "s"},
        {"peak_rss_mb", rss_mb, "MB"},
    };
    for (const Metric& m : metrics) {
      std::printf("  %-14s %14s %s\n", m.name, num(m.value).c_str(), m.unit);
    }
    std::printf("  %-14s %14s %s  (%llu/%llu)\n", "failed_frac",
                num(failed_frac).c_str(), "1",
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
    std::printf("  deltas_per_s is the median of %zu windows of %d frames "
                "(mean over all: %s/s)\n"
                "  latency: %zu samples over %zu frames; p50/p99 over the "
                "frames' medians, %zu frames above p99\n"
                "  setup_s is the median of %zu binds\n",
                window_rates.size(), w.window,
                num(ratio(static_cast<double>(plain_deltas),
                          static_cast<double>(plain_ns) / 1e9))
                    .c_str(),
                samples, frame_ns.size(), frame_ns.size() / 100,
                setup_ns.size());
  } else {
    // Standalone DynNet replay of the same decoded frames: the dyn layer's
    // share without the solver around it.
    std::vector<std::int64_t> dyn_ns;
    std::uint64_t dyn_changed = 0;
    const auto decoded = stream::decode_stream(in.bytes);
    if (!decoded) {
      correct = false;
    } else {
      for (int pass = 0; pass < 3; ++pass) {
        dyn::DynNet net(in.net);
        for (const dyn::TopologyDelta& f : decoded.value()) {
          const std::int64_t t0 = now_ns();
          const dyn::DynNet::Applied ap = net.apply(f);
          const std::int64_t t1 = now_ns();
          dyn_ns.push_back(t1 - t0);
          spans.push_back({"dyn.apply", t0, t1 - t0, -1,
                           static_cast<std::int64_t>(dyn_ns.size() - 1)});
          dyn_changed += ap.changed_arcs.size();
        }
      }
    }
    const std::vector<SelfTime> st = self_times(spans);
    auto total_of = [&st](const char* name) -> double {
      for (const SelfTime& s : st) {
        if (std::strcmp(s.name, name) == 0) {
          return static_cast<double>(s.total_ns);
        }
      }
      return 0.0;
    };
    DeltaCounts sum;
    std::uint64_t cold_updates = 0;
    for (const DeltaCounts& c : counts) {
      sum.decode_calls += c.decode_calls;
      sum.route_changes += c.route_changes;
      sum.relaxations += c.relaxations;
      sum.affected += c.affected;
      cold_updates += c.cold ? 1 : 0;
    }
    auto d = [](auto v) { return static_cast<double>(v); };
    const double nd = d(traced_deltas);
    auto per_delta = [nd](double v) { return ratio(v, nd); };
    const double rib_ns = total_of("rib.update");
    double dyn_sum = 0.0;
    for (std::int64_t v : dyn_ns) dyn_sum += d(v);
    const double overhead = ratio(ratio(d(traced_ns), d(traced_deltas)),
                                  ratio(d(plain_ns), d(plain_deltas)));
    metrics = {
        {"stream.decode_ns", per_delta(total_of("stream.next")), "ns"},
        {"stream.frame_bytes", ratio(d(in.bytes.size()), d(in.frames.size())),
         "bytes"},
        {"dyn.apply_ns", ratio(dyn_sum, d(dyn_ns.size())), "ns"},
        {"dyn.changed_arcs", ratio(d(dyn_changed), d(dyn_ns.size())), "count"},
        {"rib.update_ns", per_delta(rib_ns), "ns"},
        {"rib.relaxations", per_delta(d(sum.relaxations)), "count"},
        {"rib.affected", per_delta(d(sum.affected)), "count"},
        {"rib.cold_updates", d(cold_updates), "count"},
        {"rib.work_ratio", ratio(d(sum.relaxations), d(sum.affected)), "ratio"},
        {"serve.self_ns", per_delta(total_of("serve.apply") - rib_ns), "ns"},
        {"serve.route_changes", per_delta(d(sum.route_changes)), "count"},
        {"serve.decode_per_change",
         ratio(d(sum.decode_calls), d(sum.route_changes)), "ratio"},
        {"serve.bind_ns", order_stat(bind_ns, 0.5), "ns"},
        {"compile.decode_calls", per_delta(d(sum.decode_calls)), "count"},
        {"compile.build_ns", order_stat(build_ns, 0.5), "ns"},
        {"trace.delta_ns", per_delta(total_of("delta")), "ns"},
        {"obs.trace_overhead", overhead, "ratio"},
    };
    std::printf("  where the time goes (traced self time per delta, %llu "
                "deltas):\n",
                static_cast<unsigned long long>(traced_deltas));
    const double delta_total = total_of("delta");
    for (const char* layer :
         {"stream.next", "serve.apply", "rib.update", "delta"}) {
      for (const SelfTime& s : st) {
        if (std::strcmp(s.name, layer) != 0) continue;
        std::printf("    %-12s %12.0f ns  %5.1f%%\n",
                    std::strcmp(layer, "delta") == 0 ? "other" : layer,
                    per_delta(d(s.self_ns)),
                    100.0 * ratio(d(s.self_ns), delta_total));
      }
    }
    std::printf("    %-12s %12.0f ns\n", "total", per_delta(delta_total));
    for (const Metric& m : metrics) {
      std::printf("  %-24s %14s %s\n", m.name, num(m.value).c_str(), m.unit);
    }
    if (!args.trace_out.empty()) write_trace(args.trace_out, spans, stamp);
  }

  std::string out = "{\"correct\": " + std::string(correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "\"" : ", \"") + std::string(metrics[i].name) +
           "\": {\"value\": " + num(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  std::cout << out << "}}" << std::endl;
  return 0;
}
