// Host wall-clock benchmark of the hyades simulator.
//
// Measures what the simulator costs the person running it -- host
// seconds, not the virtual microseconds the reproduction reports -- on
// four closed-loop workloads of the same 32x16x3 basin ocean:
//
//   gyre_serial      1 SMP x 1 rank: kernels and CG, comm calls trivial
//   gyre_smp         2 SMPs x 2 ranks: SMP barrier + bus handoff dominate
//   recovery_kill    4 SMPs x 1 rank under run_resilient(kMigrate) with a
//                    seeded kill, a second kill in the recovery replay
//                    and a hot join
//   resilient_armed  the same resilient run with a fault plan whose only
//                    kill lies past the run: fault-mode transport and
//                    checkpoint cuts, no recovery
//
// A run is a sequence of episodes; each episode sets the machine up from
// scratch, steps a fixed number of steps and digests the final global
// state.  Episodes repeat until --seconds of timed work is done.  Every
// episode's digest must match the reference: a committed digest for the
// recorded seeds, otherwise one computed before the timed region (see
// compute_reference).
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs half the time
// untraced and half traced (cluster::Tracer attached, host spans kept),
// then a probe phase, and prints the per-layer metrics.  The per-layer
// numbers are timed only around public calls made from this file; the
// counts come from the spans the library already records.
//
// The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/fault.hpp"
#include "cluster/runtime.hpp"
#include "cluster/trace.hpp"
#include "comm/comm.hpp"
#include "gcm/config.hpp"
#include "gcm/halo.hpp"
#include "gcm/model.hpp"
#include "gcm/resilient.hpp"
#include "gcm/tile_ckpt.hpp"
#include "net/arctic_model.hpp"
#include "support/logging.hpp"
#include "support/rng.hpp"

namespace {

using namespace hyades;

// ---- host clock -------------------------------------------------------------

// The one place the benchmark reads the host clock.  Host time is only
// ever reported, never fed into the simulation.
std::int64_t now_ns() {
  // lint:allow(wall-clock): host wall-clock is what this benchmark
  // measures; it is reported and never reaches a VirtualClock.
  const auto t = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

double ns_to_s(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }
double ns_to_ms(std::int64_t ns) { return static_cast<double>(ns) * 1e-6; }
double ns_to_us(std::int64_t ns) { return static_cast<double>(ns) * 1e-3; }

// Linear-interpolated quantile of an unsorted sample (0 when empty).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// ---- workloads --------------------------------------------------------------

enum class Workload { kGyreSerial, kGyreSmp, kRecoveryKill, kResilientArmed };

constexpr Workload kAllWorkloads[] = {Workload::kGyreSerial, Workload::kGyreSmp,
                                      Workload::kRecoveryKill,
                                      Workload::kResilientArmed};

// The workloads that step the model inside gcm::run_resilient.
bool resilient(Workload w) {
  return w == Workload::kRecoveryKill || w == Workload::kResilientArmed;
}

struct Shape {
  int smps;
  int ppp;
};

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kGyreSerial: return "gyre_serial";
    case Workload::kGyreSmp: return "gyre_smp";
    case Workload::kRecoveryKill: return "recovery_kill";
    case Workload::kResilientArmed: return "resilient_armed";
  }
  return "?";
}

Shape workload_shape(Workload w) {
  switch (w) {
    case Workload::kGyreSerial: return {1, 1};
    case Workload::kGyreSmp: return {2, 2};
    case Workload::kRecoveryKill:
    case Workload::kResilientArmed: return {4, 1};
  }
  return {1, 1};
}

// Steps per episode: enough that an episode's p90 step time has at least
// ten samples beyond it, few enough that a 50 s run holds ten or more
// episodes whose median shrugs off one that lands on a busy host.
int episode_steps(Workload w) {
  switch (w) {
    case Workload::kGyreSerial: return 400;
    case Workload::kGyreSmp: return 100;
    case Workload::kRecoveryKill:
    case Workload::kResilientArmed: return 64;
  }
  return 1;
}

constexpr int kCkptEvery = 8;
constexpr int kGyreExtraSetups = 3;
// A kill at this virtual time puts transport in fault mode (the
// Reliable::recv poll loop) but never fires within a run.
constexpr double kNeverUs = 1e15;

// The ROADMAP baseline problem: 32x16x3 closed basin, halo 2.
gcm::ModelConfig make_cfg(int px, int py) {
  gcm::ModelConfig cfg;
  cfg.isomorph = gcm::Isomorph::kOcean;
  cfg.nx = 32;
  cfg.ny = 16;
  cfg.nz = 3;
  cfg.px = px;
  cfg.py = py;
  cfg.halo = 2;
  cfg.dt = 400.0;
  cfg.visc_h = 1.0e6;
  cfg.diff_h = 1.0e5;
  cfg.topography = gcm::ModelConfig::Topography::kBasin;
  cfg.validate();
  return cfg;
}

gcm::ModelConfig cfg_for(Shape s) {
  return s.smps * s.ppp == 1 ? make_cfg(1, 1) : make_cfg(2, 2);
}

cluster::MachineConfig machine(Shape s, const net::Interconnect& net,
                               const cluster::FaultPlan* plan) {
  cluster::MachineConfig mc;
  mc.smp_count = s.smps;
  mc.procs_per_smp = s.ppp;
  mc.interconnect = &net;
  mc.faults = plan;
  return mc;
}

// ---- final-state digest -----------------------------------------------------

// The global interior of u/v/theta/salt/ps, assembled from the tiles.
// Ranks write disjoint cells, so no lock is needed; the join orders the
// writes before the digest reads them.
struct GlobalState {
  explicit GlobalState(const gcm::ModelConfig& cfg)
      : nx(cfg.nx), ny(cfg.ny), nz(cfg.nz),
        u(cell_count(cfg, cfg.nz)), v(u.size()), theta(u.size()),
        salt(u.size()), ps(cell_count(cfg, 1)),
        steps(static_cast<std::size_t>(cfg.tiles()), -1) {}

  static std::size_t cell_count(const gcm::ModelConfig& cfg, int nz) {
    return static_cast<std::size_t>(cfg.nx) *
           static_cast<std::size_t>(cfg.ny) * static_cast<std::size_t>(nz);
  }

  void capture(int tile, const gcm::Decomp& dec, const gcm::State& s) {
    const auto h = static_cast<std::size_t>(dec.halo);
    for (int k = 0; k < nz; ++k) {
      for (int j = 0; j < dec.sny; ++j) {
        for (int i = 0; i < dec.snx; ++i) {
          const std::size_t li = static_cast<std::size_t>(i) + h;
          const std::size_t lj = static_cast<std::size_t>(j) + h;
          const auto lk = static_cast<std::size_t>(k);
          const std::size_t g =
              (static_cast<std::size_t>(k) * static_cast<std::size_t>(ny) +
               static_cast<std::size_t>(dec.j0 + j)) *
                  static_cast<std::size_t>(nx) +
              static_cast<std::size_t>(dec.i0 + i);
          u[g] = s.u(li, lj, lk);
          v[g] = s.v(li, lj, lk);
          theta[g] = s.theta(li, lj, lk);
          salt[g] = s.salt(li, lj, lk);
          if (k == 0) ps[g] = s.ps(li, lj);
        }
      }
    }
    steps[static_cast<std::size_t>(tile)] = s.step;
  }

  // FNV-1a over the raw bytes of each field, then the step counter.
  // Returns 0 if the tiles disagree on the step (or one never reported).
  [[nodiscard]] std::uint64_t digest() const {
    for (const long st : steps) {
      if (st < 0 || st != steps.front()) return 0;
    }
    std::uint64_t h = 1469598103934665603ULL;
    const auto mix = [&h](const void* p, std::size_t n) {
      const auto* b = static_cast<const unsigned char*>(p);
      for (std::size_t i = 0; i < n; ++i) {
        h ^= b[i];
        h *= 1099511628211ULL;
      }
    };
    for (const std::vector<double>* f : {&u, &v, &theta, &salt, &ps}) {
      mix(f->data(), f->size() * sizeof(double));
    }
    const long step = steps.front();
    mix(&step, sizeof step);
    return h;
  }

  int nx, ny, nz;
  std::vector<double> u, v, theta, salt, ps;
  std::vector<long> steps;
};

std::string hex64(std::uint64_t x) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(x));
  return buf;
}

// Committed digests: lines "<workload> <seed> <steps> <hex digest>".
std::map<std::string, std::uint64_t> load_refs(const std::string& path) {
  std::map<std::string, std::uint64_t> refs;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string wl, seed, steps, hex;
    if (!(ls >> wl >> seed >> steps >> hex)) continue;
    refs[wl + " " + seed + " " + steps] = std::stoull(hex, nullptr, 16);
  }
  return refs;
}

std::string ref_key(Workload w, std::uint64_t seed) {
  return std::string(workload_name(w)) + " " + std::to_string(seed) + " " +
         std::to_string(episode_steps(w));
}

// ---- host spans -------------------------------------------------------------

// Host-time spans recorded by the benchmark around its calls into the
// library.  One log per recording thread (no locking); ids are unique
// across logs because each log owns a disjoint id range.
struct HostSpan {
  const char* name;
  int rank;  // -1: the main thread
  int run;   // episode index (-1: outside any episode)
  std::int64_t id, parent;
  std::int64_t start_ns, end_ns;
};

class SpanLog {
 public:
  explicit SpanLog(int owner = -1)
      : owner_(owner),
        next_id_((static_cast<std::int64_t>(owner) + 2) << 40) {}
  std::int64_t reserve() { return next_id_++; }
  void add(std::int64_t id, const char* name, int run, std::int64_t parent,
           std::int64_t start_ns, std::int64_t end_ns) {
    if (enabled) spans.push_back({name, owner_, run, id, parent, start_ns, end_ns});
  }
  std::int64_t add(const char* name, int run, std::int64_t parent,
                   std::int64_t start_ns, std::int64_t end_ns) {
    const std::int64_t id = reserve();
    add(id, name, run, parent, start_ns, end_ns);
    return id;
  }
  bool enabled = false;
  std::vector<HostSpan> spans;

 private:
  int owner_;
  std::int64_t next_id_;
};

// ---- virtual-trace counts ---------------------------------------------------

// Communication counts read from the cluster::Tracer spans the library
// records.  Exchanges inside a "ps" phase are the PS 3-D halo stages;
// those inside "ds" are the CG 2-D stages (each exchange2d / exchange3d
// call is two Comm::exchange stages).  Collectives are counted on rank 0
// only (every rank runs the same ones); bytes are summed over all ranks.
struct CommCounts {
  double gsums = 0, xchg_ps = 0, xchg_ds = 0, barriers = 0, bytes = 0;
  void add(const CommCounts& o) {
    gsums += o.gsums;
    xchg_ps += o.xchg_ps;
    xchg_ds += o.xchg_ds;
    barriers += o.barriers;
    bytes += o.bytes;
  }
};

CommCounts count_spans(const cluster::Tracer& t, bool rank0) {
  CommCounts c;
  double pending_xchg = 0;
  for (const cluster::TraceEvent& e : t.events()) {
    switch (e.cat) {
      case cluster::SpanCat::kExchange:
        c.bytes += static_cast<double>(e.ctr.bytes);
        if (e.op == "exchange" || e.op == "exchange_wait") pending_xchg += 1;
        break;
      case cluster::SpanCat::kGsum:
        c.bytes += static_cast<double>(e.ctr.bytes);
        if (e.op == "gsum" || e.op == "gmax" || e.op == "gsum_wait" ||
            e.op == "gmax_wait") {
          c.gsums += 1;
        }
        break;
      case cluster::SpanCat::kBarrier:
        c.barriers += 1;
        break;
      case cluster::SpanCat::kPhase:
        if (e.op == "ps") {
          c.xchg_ps += pending_xchg;
          pending_xchg = 0;
        } else if (e.op == "ds") {
          c.xchg_ds += pending_xchg;
          pending_xchg = 0;
        }
        break;
      default:
        break;
    }
  }
  if (!rank0) {
    c.gsums = c.xchg_ps = c.xchg_ds = c.barriers = 0;
  }
  return c;
}

// ---- run-wide results -------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::size_t samples;
};

struct Totals {
  long attempted = 0;
  long failed = 0;
  long steps = 0;
  std::int64_t loop_ns = 0;  // timed stepping wall, summed over episodes
  std::vector<double> episode_rate;  // committed steps per host second
  // gyre: per-episode p50 / p90 of rank 0's Model::step host time.
  std::vector<double> step_p50_ms, step_p90_ms;
  std::vector<double> setup_s;        // one per set-up
  std::vector<std::vector<double>> rank_step_ms;  // traced gyre: per rank
  std::vector<double> episode_ms_per_step;       // resilient workloads
  // Traced-only aggregates.
  CommCounts comm_rank0;  // counts on rank 0, bytes over all ranks
  double ps_flops = 0, ds_flops = 0, cg_iters = 0, flops_all_ranks = 0;
  long counted_steps = 0;  // steps covered by the aggregates above
  // resilient workloads
  double epochs = 0, events = 0, downgrades = 0, migrations = 0,
         rebalances = 0;
  std::vector<double> to_first_verdict_s, after_last_verdict_s;
  // Killed-episode wall over the wall of a failure-free run of the same
  // steps made right after it, so both see the same host.
  std::vector<double> fault_overhead;
};

void note_failure(Totals& t, const std::string& why) {
  ++t.failed;
  std::cerr << "hostbench: failed episode: " << why << "\n";
}

struct Ctx {
  Ctx(Workload w, std::uint64_t s, std::string dir)
      : wl(w), seed(s), origin_ns(now_ns()), work_dir(std::move(dir)) {}
  Workload wl;
  std::uint64_t seed;
  std::int64_t origin_ns;
  std::string work_dir;
  net::ArcticModel net;
  SpanLog main_log{-1};
  std::vector<SpanLog> rank_logs;
};

// ---- gyre episodes ----------------------------------------------------------

struct GyreRankOut {
  std::int64_t first_step_ns = 0, end_ns = 0;
  std::vector<double> step_ms;
  bool converged = true;
  double ps_flops = 0, ds_flops = 0, cg_iters = 0;
};

// One gyre episode: fresh Runtime, spawn, Model + initialize, then
// `steps` closed-loop steps (0: a set-up sample only).  Returns the
// final-state digest; throws if a step's CG solve did not converge.
std::uint64_t run_gyre_episode(Ctx& c, Shape shape, int steps, int run,
                               bool traced, Totals* t) {
  const int nranks = shape.smps * shape.ppp;
  const gcm::ModelConfig cfg = cfg_for(shape);
  GlobalState global(cfg);
  std::vector<GyreRankOut> out(static_cast<std::size_t>(nranks));
  std::vector<cluster::Tracer> tracers(
      traced ? static_cast<std::size_t>(nranks) : 0);
  const std::int64_t ep_id = c.main_log.reserve();

  const std::int64_t t0 = now_ns();
  cluster::Runtime rt(machine(shape, c.net, nullptr));
  rt.run([&](cluster::RankContext& ctx) {
    const auto ri = static_cast<std::size_t>(ctx.rank());
    GyreRankOut& o = out[ri];
    SpanLog* log = traced ? &c.rank_logs[ri] : nullptr;
    if (traced) ctx.set_tracer(&tracers[ri]);
    comm::Comm comm(ctx);
    gcm::Model model(cfg, comm);
    model.initialize(c.seed);
    o.step_ms.reserve(static_cast<std::size_t>(steps));
    o.first_step_ns = now_ns();
    for (int s = 0; s < steps; ++s) {
      const std::int64_t a = now_ns();
      const gcm::StepStats st = model.step();
      const std::int64_t b = now_ns();
      o.step_ms.push_back(ns_to_ms(b - a));
      if (log != nullptr) log->add("gcm.Model::step", run, ep_id, a, b);
      o.converged = o.converged && st.cg_converged;
      o.ps_flops += st.ps_flops;
      o.ds_flops += st.ds_flops;
      o.cg_iters += st.cg_iterations;
    }
    o.end_ns = now_ns();
    global.capture(comm.group_rank(), model.decomp(), model.state());
  });
  const std::int64_t t1 = now_ns();

  if (t != nullptr) {
    const GyreRankOut& r0 = out[0];
    t->setup_s.push_back(ns_to_s(r0.first_step_ns - t0));
  }
  if (t != nullptr && steps > 0) {
    const GyreRankOut& r0 = out[0];
    t->loop_ns += r0.end_ns - r0.first_step_ns;
    t->episode_rate.push_back(steps / ns_to_s(r0.end_ns - r0.first_step_ns));
    t->steps += steps;
    t->step_p50_ms.push_back(quantile(r0.step_ms, 0.5));
    t->step_p90_ms.push_back(quantile(r0.step_ms, 0.9));
    if (traced) {
      c.main_log.add(ep_id, "episode", run, -1, t0, t1);
      c.main_log.add("setup", run, ep_id, t0, r0.first_step_ns);
      t->rank_step_ms.resize(static_cast<std::size_t>(nranks));
      for (std::size_t r = 0; r < out.size(); ++r) {
        auto& dst = t->rank_step_ms[r];
        dst.insert(dst.end(), out[r].step_ms.begin(), out[r].step_ms.end());
        t->flops_all_ranks += out[r].ps_flops + out[r].ds_flops;
        t->comm_rank0.add(count_spans(tracers[r], r == 0));
      }
      t->ps_flops += r0.ps_flops;
      t->ds_flops += r0.ds_flops;
      t->cg_iters += r0.cg_iters;
      t->counted_steps += steps;
    }
  }
  for (const GyreRankOut& o : out) {
    if (!o.converged) throw std::runtime_error("a step returned cg_converged == false");
  }
  return global.digest();
}

// ---- recovery episodes ------------------------------------------------------

// Failure-free resilient run: the bits a killed run must reproduce, and
// the virtual busy time the kill schedule is anchored to.
struct CleanRun {
  std::uint64_t digest = 0;
  double busy_us = 0;
  double wall_s = 0;
};

struct RecoveryOut {
  std::uint64_t digest = 0;
  gcm::ResilientStats stats;
  std::vector<std::int64_t> verdict_ns;  // host stamps of pre_recovery
  std::int64_t begin_ns = 0, end_ns = 0;
  double ps_flops_per_step = 0, ds_flops_per_step = 0, cg_per_step = 0;
};

RecoveryOut run_resilient_once(Ctx& c, cluster::Runtime& rt, int steps,
                               std::vector<cluster::Tracer>* tracers) {
  const Shape shape = workload_shape(c.wl);
  const gcm::ModelConfig cfg = cfg_for(shape);
  GlobalState global(cfg);
  RecoveryOut out;
  gcm::ResilientConfig rcfg;
  rcfg.ckpt_prefix = (std::filesystem::path(c.work_dir) / "resilient").string();
  rcfg.ckpt_every = kCkptEvery;
  rcfg.init_seed = c.seed;
  rcfg.recovery = gcm::RecoveryMode::kMigrate;
  rcfg.tracers = tracers;
  rcfg.pre_recovery = [&out](int, const cluster::NodeDownVerdict&) {
    out.verdict_ns.push_back(now_ns());
  };
  rcfg.on_complete = [&](cluster::RankContext& ctx, gcm::Model& m) {
    global.capture(m.comm().group_rank(), m.decomp(), m.state());
    if (ctx.rank() == 0) {
      const gcm::PerfObservables& obs = m.stepper().observables();
      const double n = obs.steps > 0 ? static_cast<double>(obs.steps) : 1.0;
      out.ps_flops_per_step = obs.ps_flops / n;
      out.ds_flops_per_step = obs.ds_flops / n;
      out.cg_per_step = static_cast<double>(obs.cg_iterations) / n;
    }
  };
  out.begin_ns = now_ns();
  out.stats = gcm::run_resilient(rt, cfg, steps, rcfg);
  out.end_ns = now_ns();
  gcm::tile_ckpt::remove_slots(rcfg.ckpt_prefix, shape.smps * shape.ppp);
  out.digest = global.digest();
  return out;
}

CleanRun run_clean(Ctx& c) {
  cluster::Runtime rt(machine(workload_shape(c.wl), c.net, nullptr));
  const RecoveryOut r =
      run_resilient_once(c, rt, episode_steps(c.wl), nullptr);
  return {r.digest, rt.max_clock(), ns_to_s(r.end_ns - r.begin_ns)};
}

// The seeded kill schedule: a kill half-way between two checkpoint cuts
// in the middle of the run, a second kill on another board two steps
// into the recovery's replay (epoch 1), and a hot join of the first
// board two cuts before the end.  The seed picks the boards and the
// cut; the kill's offset from its cut is fixed, so every seed replays
// the same number of steps.  resilient_armed keeps only the first
// board's kill, moved past the end of the run.
cluster::FaultPlan make_plan(Workload w, std::uint64_t seed,
                             double clean_busy_us) {
  SplitMix64 rng(hash_mix(seed, {0x6b696c6cULL}));
  constexpr int kRanks = 4;
  const int first = static_cast<int>(rng.next_below(kRanks));
  cluster::FaultPlan plan;
  if (w == Workload::kResilientArmed) {
    plan.node_kills.push_back({first, kNeverUs, 0});
    return plan;
  }
  const int second =
      (first + 1 + static_cast<int>(rng.next_below(kRanks - 1))) % kRanks;
  const int cut = kCkptEvery * (2 + static_cast<int>(rng.next_below(3)));
  const int steps = episode_steps(w);
  const double step_us = clean_busy_us / steps;
  const double kill_us = (cut + 0.5 * kCkptEvery) * step_us;
  plan.node_kills.push_back({first, kill_us, 0});
  plan.node_kills.push_back(
      {second, kill_us + plan.heartbeat_deadline_us + 2.0 * step_us, 1});
  plan.node_joins.push_back({first, static_cast<long>(steps - 2 * kCkptEvery)});
  return plan;
}

std::uint64_t run_recovery_episode(Ctx& c, double clean_busy_us, int run,
                                   bool traced, Totals& t) {
  const Shape shape = workload_shape(c.wl);
  const int nranks = shape.smps * shape.ppp;
  const int steps = episode_steps(c.wl);
  std::vector<cluster::Tracer> tracers(
      traced ? static_cast<std::size_t>(nranks) : 0);
  const std::int64_t ep_id = c.main_log.reserve();

  // Set-up is everything before the first step: plan generation,
  // Runtime construction, and run_resilient's launch (rank spawn, Model
  // + initialize, the durable step-0 checkpoint), timed as a zero-step
  // run.  It is a few milliseconds, so it is sampled several times per
  // episode.
  constexpr int kSetups = 4;
  const std::int64_t setup_begin = now_ns();
  for (int i = 0; i < kSetups; ++i) {
    const std::int64_t a = now_ns();
    const cluster::FaultPlan plan = make_plan(c.wl, c.seed, clean_busy_us);
    cluster::Runtime rt(machine(shape, c.net, &plan));
    (void)run_resilient_once(c, rt, 0, nullptr);
    t.setup_s.push_back(ns_to_s(now_ns() - a));
  }
  const cluster::FaultPlan plan = make_plan(c.wl, c.seed, clean_busy_us);
  cluster::Runtime rt(machine(shape, c.net, &plan));
  const RecoveryOut r =
      run_resilient_once(c, rt, steps, traced ? &tracers : nullptr);

  const double wall_s = ns_to_s(r.end_ns - r.begin_ns);
  t.loop_ns += r.end_ns - r.begin_ns;
  t.episode_rate.push_back(r.stats.steps / wall_s);
  t.steps += r.stats.steps;
  t.episode_ms_per_step.push_back(1e3 * wall_s / r.stats.steps);
  const auto events = static_cast<int>(r.stats.ladder.size());
  if (traced) {
    c.main_log.add(ep_id, "episode", run, -1, setup_begin, r.end_ns);
    c.main_log.add("setup", run, ep_id, setup_begin, r.begin_ns);
    const std::int64_t rs_id =
        c.main_log.add("gcm.run_resilient", run, ep_id, r.begin_ns, r.end_ns);
    for (const std::int64_t v : r.verdict_ns) {
      c.main_log.add("resilient.verdict", run, rs_id, v, v);
    }
    for (std::size_t i = 0; i < tracers.size(); ++i) {
      t.comm_rank0.add(count_spans(tracers[i], i == 0));
    }
    t.ps_flops += r.ps_flops_per_step * r.stats.steps;
    t.ds_flops += r.ds_flops_per_step * r.stats.steps;
    t.cg_iters += r.cg_per_step * r.stats.steps;
    t.flops_all_ranks +=
        (r.ps_flops_per_step + r.ds_flops_per_step) * r.stats.steps * nranks;
    t.counted_steps += r.stats.steps;
    t.epochs += r.stats.restarts + 1;
    t.events += events;
    for (const gcm::RecoveryEvent& ev : r.stats.ladder) {
      t.downgrades += ev.downgrades();
    }
    t.migrations += r.stats.migrations;
    t.rebalances += r.stats.rebalances;
    if (!r.verdict_ns.empty()) {
      t.to_first_verdict_s.push_back(ns_to_s(r.verdict_ns.front() - r.begin_ns));
      t.after_last_verdict_s.push_back(ns_to_s(r.end_ns - r.verdict_ns.back()));
    }
    t.fault_overhead.push_back(wall_s / run_clean(c).wall_s);
  }
  const int expected = c.wl == Workload::kRecoveryKill ? 2 : 0;
  if (events != expected) {
    throw std::runtime_error("expected " + std::to_string(expected) +
                             " recovery events, got " + std::to_string(events));
  }
  return r.digest;
}

// ---- probes (traced run only) -----------------------------------------------

struct ProbeResult {
  double runtime_ctor_us = 0, spawn_join_us = 0, smp_sync_us = 0;
  double model_setup_ms = 0;
  std::vector<double> gsum_us, xchg2d_us, xchg3d_us, barrier_us;
  double save_ms = 0, load_ms = 0, verify_ms = 0, ckpt_bytes = 0;
};

// Times single public calls of each layer at the workload's shape.  For
// the resilient workloads the machine carries a kill scheduled far beyond
// the probe, so transport runs in the same fault mode as the workload
// without firing.
ProbeResult run_probes(Ctx& c, Shape shape) {
  constexpr int kClusterReps = 64;
  constexpr int kCommReps = 200;
  constexpr int kModelReps = 16;
  constexpr int kCkptReps = 16;
  ProbeResult p;
  cluster::FaultPlan far_plan;
  const bool fault_mode = resilient(c.wl);
  if (fault_mode) far_plan.node_kills.push_back({0, kNeverUs, 0});
  const cluster::MachineConfig mc =
      machine(shape, c.net, fault_mode ? &far_plan : nullptr);
  const gcm::ModelConfig cfg = cfg_for(shape);
  const std::int64_t probe_id = c.main_log.reserve();
  const std::int64_t p0 = now_ns();

  std::vector<double> ctor_us, spawn_us;
  for (int i = 0; i < kClusterReps; ++i) {
    const std::int64_t a = now_ns();
    cluster::Runtime rt(mc);
    const std::int64_t b = now_ns();
    rt.run([](cluster::RankContext&) {});
    const std::int64_t e = now_ns();
    ctor_us.push_back(ns_to_us(b - a));
    spawn_us.push_back(ns_to_us(e - b));
    c.main_log.add("cluster.Runtime::Runtime", -1, probe_id, a, b);
    c.main_log.add("cluster.Runtime::run(empty)", -1, probe_id, b, e);
  }
  p.runtime_ctor_us = median(ctor_us);
  p.spawn_join_us = median(spawn_us);

  cluster::Runtime rt(mc);
  std::vector<double> sync_us, model_ms;
  gcm::State tile;
  rt.run([&](cluster::RankContext& ctx) {
    const bool r0 = ctx.rank() == 0;
    SpanLog& log = c.rank_logs[static_cast<std::size_t>(ctx.rank())];
    const auto timed = [&](const char* name, std::vector<double>* sink,
                           double scale, auto&& fn) {
      const std::int64_t a = now_ns();
      fn();
      const std::int64_t b = now_ns();
      if (r0) {
        sink->push_back(static_cast<double>(b - a) * scale);
        log.add(name, -1, probe_id, a, b);
      }
    };
    for (int i = 0; i < kClusterReps; ++i) {
      timed("cluster.smp_sync", &sync_us, 1e-3, [&] { ctx.smp_sync(); });
    }
    comm::Comm comm(ctx);
    std::unique_ptr<gcm::Model> model;
    for (int i = 0; i < kModelReps; ++i) {
      timed("gcm.Model+initialize", &model_ms, 1e-6, [&] {
        model = std::make_unique<gcm::Model>(cfg, comm);
        model->initialize(c.seed);
      });
    }
    const gcm::Decomp& dec = model->decomp();
    Array2D<double> f2 = model->state().ps;
    Array3D<double> f3 = model->state().theta;
    double x = 1.0 + ctx.rank();
    for (int i = 0; i < kCommReps; ++i) {
      timed("comm.global_sum", &p.gsum_us, 1e-3,
            [&] { x = comm.global_sum(x) * 0.25; });
      timed("comm.exchange2d", &p.xchg2d_us, 1e-3,
            [&] { gcm::exchange2d(comm, dec, f2, 1); });
      timed("comm.exchange3d", &p.xchg3d_us, 1e-3,
            [&] { gcm::exchange3d(comm, dec, f3, cfg.halo); });
      timed("comm.barrier", &p.barrier_us, 1e-3, [&] { comm.barrier(); });
    }
    if (r0) tile = model->state();
  });
  p.smp_sync_us = median(sync_us);
  p.model_setup_ms = median(model_ms);

  // Durable tile checkpoint I/O on the workload's rank-0 tile.
  const std::string path = gcm::tile_ckpt::rank_path(
      (std::filesystem::path(c.work_dir) / "probe").string(), 0);
  std::vector<double> save_ms, load_ms, verify_ms;
  gcm::State back = tile;
  bool verified = true;
  for (int i = 0; i < kCkptReps; ++i) {
    std::int64_t a = now_ns();
    gcm::tile_ckpt::save(path, cfg, tile);
    std::int64_t b = now_ns();
    save_ms.push_back(ns_to_ms(b - a));
    c.main_log.add("gcm.tile_ckpt::save", -1, probe_id, a, b);
    a = now_ns();
    gcm::tile_ckpt::load(path, cfg, &back);
    b = now_ns();
    load_ms.push_back(ns_to_ms(b - a));
    c.main_log.add("gcm.tile_ckpt::load", -1, probe_id, a, b);
    a = now_ns();
    verified = gcm::tile_ckpt::verify(path, cfg) && verified;
    b = now_ns();
    verify_ms.push_back(ns_to_ms(b - a));
    c.main_log.add("gcm.tile_ckpt::verify", -1, probe_id, a, b);
  }
  if (!verified) throw std::runtime_error("tile_ckpt::verify rejected a fresh save");
  p.save_ms = median(save_ms);
  p.load_ms = median(load_ms);
  p.verify_ms = median(verify_ms);
  p.ckpt_bytes = static_cast<double>(std::filesystem::file_size(path));
  std::filesystem::remove(path);
  c.main_log.add(probe_id, "probe", -1, -1, p0, now_ns());
  return p;
}

// ---- output -----------------------------------------------------------------

// Peak resident set of this process image.  VmHWM, unlike getrusage's
// ru_maxrss, starts afresh at exec, so the parent that forked us (a
// Python runner, say) does not leak its own footprint into the figure.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the field is in kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::string provenance_json(const Ctx& c, double seconds, bool traced) {
  std::ostringstream o;
  o.precision(17);
  o << "{\"workload\":\"" << workload_name(c.wl) << "\",\"seed\":" << c.seed
    << ",\"seconds\":" << seconds << ",\"trace\":" << (traced ? 1 : 0)
    << ",\"build_type\":\"" << HOSTBENCH_BUILD_TYPE << "\",\"compiler\":\""
    << HOSTBENCH_COMPILER << "\",\"nproc\":"
    << std::thread::hardware_concurrency()
    << ",\"episode_steps\":" << episode_steps(c.wl)
    << ",\"host_wall_s\":" << ns_to_s(now_ns() - c.origin_ns) << "}";
  return o.str();
}

void write_spans(const Ctx& c, const std::string& path,
                 const std::string& provenance) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span file " + path);
  out << "{\"provenance\":" << provenance << "}\n";
  const auto emit = [&](const SpanLog& log) {
    for (const HostSpan& s : log.spans) {
      out << "{\"name\":\"" << s.name << "\",\"rank\":" << s.rank
          << ",\"run\":" << s.run << ",\"id\":" << s.id
          << ",\"parent\":" << s.parent
          << ",\"start_ns\":" << (s.start_ns - c.origin_ns)
          << ",\"end_ns\":" << (s.end_ns - c.origin_ns) << "}\n";
    }
  };
  emit(c.main_log);
  for (const SpanLog& log : c.rank_logs) emit(log);
}

void print_table(const std::string& title, const std::vector<Metric>& ms,
                 long failed) {
  std::printf("%s\n", title.c_str());
  std::printf("  %-32s %16s  %-8s %8s %7s\n", "metric", "value", "unit",
              "samples", "failed");
  for (const Metric& m : ms) {
    std::printf("  %-32s %16.6g  %-8s %8zu %7ld\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples, failed);
  }
}

std::string result_json(bool correct, long attempted, long failed,
                        const std::vector<Metric>& ms) {
  std::ostringstream o;
  o.precision(17);
  o << "{\"correct\":" << (correct ? "true" : "false")
    << ",\"attempted\":" << attempted << ",\"failed\":" << failed
    << ",\"metrics\":{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    double v = ms[i].value;
    if (!std::isfinite(v)) v = 0.0;
    o << (i ? "," : "") << "\"" << ms[i].name << "\":{\"value\":" << v
      << ",\"unit\":\"" << ms[i].unit << "\"}";
  }
  o << "}}";
  return o.str();
}

// ---- main -------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string refs, spans, work_dir = ".";
  long emit_lo = -1, emit_hi = -1;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "hostbench: " << why
            << "\nusage: hostbench --workload gyre_serial|gyre_smp|"
               "recovery_kill|resilient_armed\n"
               "                 --seed N --seconds S --trace 0|1 "
               "[--refs FILE] [--spans FILE] [--work DIR]\n"
               "       hostbench --emit-refs LO HI [--work DIR]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto val = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + k);
      return argv[++i];
    };
    try {
      if (k == "--workload") a.workload = val();
      else if (k == "--seed") a.seed = std::stoull(val());
      else if (k == "--seconds") a.seconds = std::stod(val());
      else if (k == "--trace") a.trace = std::stoi(val());
      else if (k == "--refs") a.refs = val();
      else if (k == "--spans") a.spans = val();
      else if (k == "--work") a.work_dir = val();
      else if (k == "--emit-refs") {
        a.emit_lo = std::stol(val());
        a.emit_hi = std::stol(val());
      } else {
        usage("unknown argument " + k);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + k);
    }
  }
  if (a.seconds <= 0 || (a.trace != 0 && a.trace != 1)) usage("bad --seconds/--trace");
  return a;
}

Workload parse_workload(const std::string& s) {
  for (Workload w : kAllWorkloads) {
    if (s == workload_name(w)) return w;
  }
  usage("unknown workload '" + s + "'");
}

// The reference digest of (workload, seed) computed from scratch.  A
// 2x2 tiling is bit-identical across machine shapes, so gyre_smp is
// checked against 4 SMPs x 1; the single tile folds its global sums
// differently, so gyre_serial is checked against an untimed run of its
// own; the resilient workloads against the failure-free resilient run.
std::uint64_t compute_reference(Ctx& c, CleanRun* clean) {
  switch (c.wl) {
    case Workload::kGyreSerial:
      return run_gyre_episode(c, {1, 1}, episode_steps(c.wl), -1, false,
                              nullptr);
    case Workload::kGyreSmp:
      return run_gyre_episode(c, {4, 1}, episode_steps(c.wl), -1, false,
                              nullptr);
    case Workload::kRecoveryKill:
    case Workload::kResilientArmed:
      *clean = run_clean(c);
      return clean->digest;
  }
  return 0;
}

int emit_refs(const Args& a) {
  std::cout << "# <workload> <seed> <steps> <final-state digest>\n";
  for (long s = a.emit_lo; s <= a.emit_hi; ++s) {
    for (Workload w : kAllWorkloads) {
      Ctx c(w, static_cast<std::uint64_t>(s), a.work_dir);
      CleanRun clean;
      std::cout << ref_key(w, c.seed) << " " << hex64(compute_reference(c, &clean))
                << std::endl;
    }
  }
  return 0;
}

int run(const Args& a) {
  Ctx c(parse_workload(a.workload), a.seed, a.work_dir);
  const Shape shape = workload_shape(c.wl);
  const int nranks = shape.smps * shape.ppp;
  const bool traced_run = a.trace == 1;
  for (int r = 0; r < std::max(nranks, 4); ++r) c.rank_logs.emplace_back(r);

  // The reference run, outside the timed region, always happens: it
  // anchors the kill schedule and warms the process up.  For a recorded seed
  // the committed digest stays the reference, so a reference run that
  // disagrees with it fails every episode.
  const auto refs = load_refs(a.refs);
  const auto hit = refs.find(ref_key(c.wl, c.seed));
  CleanRun clean;
  std::uint64_t ref = compute_reference(c, &clean);
  if (hit != refs.end() && hit->second != ref) {
    std::cerr << "hostbench: reference run digest " << hex64(ref)
              << " != committed " << hex64(hit->second) << "\n";
  }
  if (hit != refs.end()) ref = hit->second;
  const char* ref_src = hit != refs.end() ? "committed" : "computed";

  // Timed episodes.  The traced run spends its first half untraced (the
  // baseline for the tracing overhead) and its second half traced.
  Totals untraced, traced;
  const std::int64_t budget = static_cast<std::int64_t>(a.seconds * 1e9);
  const std::int64_t half = traced_run ? budget / 2 : budget;
  int episode = 0;
  const auto run_phase = [&](Totals& t, bool with_trace, std::int64_t ns) {
    for (auto& log : c.rank_logs) log.enabled = with_trace;
    c.main_log.enabled = with_trace;
    const std::int64_t begin = now_ns();
    do {
      ++t.attempted;
      try {
        if (!resilient(c.wl)) {
          // Extra set-up samples: set-up is well under a millisecond.
          for (int i = 0; i < kGyreExtraSetups; ++i) {
            (void)run_gyre_episode(c, shape, 0, episode, false, &t);
          }
        }
        const std::uint64_t d =
            resilient(c.wl)
                ? run_recovery_episode(c, clean.busy_us, episode, with_trace, t)
                : run_gyre_episode(c, shape, episode_steps(c.wl), episode,
                                   with_trace, &t);
        if (d != ref) {
          note_failure(t, "final-state digest " + hex64(d) + " != reference " +
                              hex64(ref));
        }
      } catch (const std::exception& e) {
        note_failure(t, std::string("threw: ") + e.what());
      }
      ++episode;
    } while (now_ns() - begin < ns);
  };
  run_phase(untraced, false, half);
  if (traced_run) run_phase(traced, true, budget - half);

  // Median over episodes: one episode that lands on a busy host does
  // not move the run's figure.
  const auto sps = [](const Totals& t) { return median(t.episode_rate); };
  const long attempted = untraced.attempted + traced.attempted;
  const long failed = untraced.failed + traced.failed;
  std::vector<Metric> ms;
  const bool gyre = !resilient(c.wl);

  if (!traced_run) {
    // gyre: the median episode's step-time percentiles; resilient
    // workloads: the median over episodes of host ms per committed step,
    // and no tail percentile -- a 50 s run holds about 25 episodes, too
    // few to leave ten samples beyond a p90.
    const Totals& u = untraced;
    const auto steps_n = static_cast<std::size_t>(u.steps);
    ms.push_back({"steps_per_s", sps(u), "1/s", steps_n});
    if (gyre) {
      ms.push_back({"step_ms_p50", median(u.step_p50_ms), "ms", steps_n});
      ms.push_back({"step_ms_p90", median(u.step_p90_ms), "ms", steps_n});
    } else {
      const std::vector<double>& e = u.episode_ms_per_step;
      ms.push_back({"step_ms_p50", median(e), "ms", e.size()});
    }
    ms.push_back({"setup_s", median(untraced.setup_s), "s",
                  untraced.setup_s.size()});
    ms.push_back({"peak_rss_mb", peak_rss_mb(), "MB", 1});
  } else {
    const ProbeResult p = run_probes(c, shape);
    const Totals& t = traced;
    const double n = t.counted_steps > 0 ? static_cast<double>(t.counted_steps) : 1.0;
    const double gsums = t.comm_rank0.gsums / n;
    const double x3 = t.comm_rank0.xchg_ps / n / 2.0;  // exchange3d calls
    const double x2 = t.comm_rank0.xchg_ds / n / 2.0;  // exchange2d calls
    const double bars = t.comm_rank0.barriers / n;
    const double step_ms =
        gyre ? median(t.step_p50_ms) : median(t.episode_ms_per_step);
    const double est_ms = 1e-3 * (gsums * median(p.gsum_us) +
                                  x2 * median(p.xchg2d_us) +
                                  x3 * median(p.xchg3d_us) +
                                  bars * median(p.barrier_us));
    const double est_share = step_ms > 0 ? est_ms / step_ms : 0.0;
    double skew = 0;
    if (gyre && !t.rank_step_ms.empty()) {
      std::vector<double> per_rank;
      for (const auto& v : t.rank_step_ms) per_rank.push_back(median(v));
      skew = *std::max_element(per_rank.begin(), per_rank.end()) -
             *std::min_element(per_rank.begin(), per_rank.end());
    }
    const auto eps = static_cast<std::size_t>(t.attempted);
    const std::size_t steps_n = static_cast<std::size_t>(t.counted_steps);
    ms = {
        {"cluster.runtime_ctor_us", p.runtime_ctor_us, "us", 64},
        {"cluster.spawn_join_us", p.spawn_join_us, "us", 64},
        {"cluster.smp_sync_us", p.smp_sync_us, "us", 64},
        {"comm.gsum_us_p50", quantile(p.gsum_us, 0.5), "us", p.gsum_us.size()},
        {"comm.gsum_us_p90", quantile(p.gsum_us, 0.9), "us", p.gsum_us.size()},
        {"comm.exchange2d_us_p50", quantile(p.xchg2d_us, 0.5), "us", p.xchg2d_us.size()},
        {"comm.exchange2d_us_p90", quantile(p.xchg2d_us, 0.9), "us", p.xchg2d_us.size()},
        {"comm.exchange3d_us_p50", quantile(p.xchg3d_us, 0.5), "us", p.xchg3d_us.size()},
        {"comm.exchange3d_us_p90", quantile(p.xchg3d_us, 0.9), "us", p.xchg3d_us.size()},
        {"comm.barrier_us_p50", quantile(p.barrier_us, 0.5), "us", p.barrier_us.size()},
        {"comm.barrier_us_p90", quantile(p.barrier_us, 0.9), "us", p.barrier_us.size()},
        {"comm.gsums_per_step", gsums, "count", steps_n},
        {"comm.exchanges_per_step", x2 + x3, "count", steps_n},
        {"comm.barriers_per_step", bars, "count", steps_n},
        {"comm.bytes_per_step", t.comm_rank0.bytes / n, "B", steps_n},
        {"comm.est_share", est_share, "ratio", steps_n},
        {"gcm.step_unattributed_share", 1.0 - est_share, "ratio", steps_n},
        {"gcm.model_setup_ms", p.model_setup_ms, "ms", 16},
        {"gcm.step_ms_rank_skew", skew, "ms", steps_n},
        {"gcm.cg_iters_per_step", t.cg_iters / n, "count", steps_n},
        {"gcm.ps_flops_per_step", t.ps_flops / n, "flop", steps_n},
        {"gcm.ds_flops_per_step", t.ds_flops / n, "flop", steps_n},
        {"gcm.host_mflops",
         t.loop_ns > 0 ? t.flops_all_ranks / ns_to_s(t.loop_ns) * 1e-6 : 0.0,
         "Mflop/s", steps_n},
        {"tile_ckpt.save_ms", p.save_ms, "ms", 16},
        {"tile_ckpt.load_ms", p.load_ms, "ms", 16},
        {"tile_ckpt.verify_ms", p.verify_ms, "ms", 16},
        {"tile_ckpt.bytes", p.ckpt_bytes, "B", 1},
        {"resilient.epochs", t.epochs / static_cast<double>(std::max<std::size_t>(eps, 1)),
         "count", eps},
        {"resilient.recovery_events", t.events / static_cast<double>(std::max<std::size_t>(eps, 1)),
         "count", eps},
        {"resilient.downgrades", t.downgrades / static_cast<double>(std::max<std::size_t>(eps, 1)),
         "count", eps},
        {"resilient.migrations", t.migrations / static_cast<double>(std::max<std::size_t>(eps, 1)),
         "count", eps},
        {"resilient.rebalances", t.rebalances / static_cast<double>(std::max<std::size_t>(eps, 1)),
         "count", eps},
        {"resilient.to_first_verdict_s", median(t.to_first_verdict_s), "s",
         t.to_first_verdict_s.size()},
        {"resilient.after_last_verdict_s", median(t.after_last_verdict_s), "s",
         t.after_last_verdict_s.size()},
        {"resilient.fault_mode_overhead", median(t.fault_overhead), "ratio",
         t.fault_overhead.size()},
        {"trace.steps_per_s_untraced", sps(untraced), "1/s",
         static_cast<std::size_t>(untraced.steps)},
        {"trace.steps_per_s_traced", sps(traced), "1/s",
         static_cast<std::size_t>(traced.steps)},
        {"trace.overhead", sps(traced) > 0 ? sps(untraced) / sps(traced) : 0.0,
         "ratio", 2},
    };
  }

  const std::string prov = provenance_json(c, a.seconds, traced_run);
  if (traced_run && !a.spans.empty()) write_spans(c, a.spans, prov);
  print_table(std::string(workload_name(c.wl)) + " seed " +
                  std::to_string(c.seed) + (traced_run ? " (traced)" : "") +
                  ", reference digest " + hex64(ref) + " (" + ref_src + ")",
              ms, failed);
  for (const Totals* t : {&untraced, &traced}) {
    if (t->episode_rate.empty()) continue;
    const std::vector<double>& r = t->episode_rate;
    std::printf("%s episodes: %zu, steps/s min %.4g p25 %.4g p50 %.4g "
                "p75 %.4g max %.4g\n",
                t == &traced ? "traced" : "untraced", r.size(),
                quantile(r, 0), quantile(r, 0.25), quantile(r, 0.5),
                quantile(r, 0.75), quantile(r, 1));
  }
  std::cout << "provenance " << prov << "\n";
  std::cout << result_json(failed == 0, attempted, failed, ms) << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  set_log_level(LogLevel::kError);
  const Args a = parse_args(argc, argv);
  try {
    if (a.emit_lo >= 0) return emit_refs(a);
    if (a.workload.empty()) usage("--workload is required");
    return run(a);
  } catch (const std::exception& e) {
    std::cerr << "hostbench: " << e.what() << "\n";
    return 1;
  }
}
