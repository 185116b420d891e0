// perfbench_jobs — runs Orion tuning jobs in process and reports one
// JSON record per run on stdout (perfbench/run.py turns it into metrics).
//
//   perfbench_jobs --workload W --seed N --seconds S --trace 0|1
//                    --work DIR [--parity KERNEL@GPU]
//
// A job is the in-process equivalent of one of the two user-facing
// entry points, calling the same public functions in the same order
// with the same default options:
//
//   tune-*       `orion-cc run K.vcub --validate --session DIR --gpu G`:
//                decode -> core::CompileMultiVersion (validation gate on)
//                -> persist::Session -> runtime::TunedLauncher::Run ->
//                final characterization launch.
//   service-mix  one `orion-d` pass per submitted job on a shared root:
//                service::Daemon Start -> Submit -> ServeUntilDrained.
//
// One client, closed loop, one thread (compile fan-out and the daemon
// worker pool both stay at their default width of 1).  The seed sets
// the input memory image, ProbeOptions::seed, the miscompile plan and
// the job order; it never changes the kernel set.
//
// A run repeats *rounds* — every job of the workload once, in the
// seeded order — while the next round is projected to end within
// --seconds, so every run measures the same job mix.  With --trace 1
// rounds alternate untraced/traced: traced rounds feed the per-layer
// ledger and the untraced ones the tracing-overhead ratio.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "arch/gpu_spec.h"
#include "baseline/baseline.h"
#include "common/error.h"
#include "common/faultinject.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/orion.h"
#include "isa/binary.h"
#include "persist/codec.h"
#include "persist/session.h"
#include "runtime/launcher.h"
#include "service/daemon.h"
#include "sim/gpu_sim.h"
#include "telemetry/telemetry.h"
#include "workloads/workloads.h"

namespace {

using namespace orion;
using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// ---------------------------------------------------------------------
// Workload definitions.

struct KernelOnGpu {
  std::string kernel;
  std::string gpu;
};

// Cold validated jobs whose Fig. 8 candidates include realized,
// non-padded versions, so the differential validator runs its pass
// path, on both GPU models.  recursiveGaussian has the cheapest such
// jobs (2-5 s); cfd, hotspot or dxtc jobs take 13-22 s each, too long
// for the several rounds a run needs to be steady on a noisy host.
const KernelOnGpu kValidated[] = {
    {"recursiveGaussian", "gtx680"},
    {"recursiveGaussian", "c2075"},
};
// The miscompile job: same pipeline under a seeded miscompile plan, so
// the validator's reject path runs next to its pass path.
const KernelOnGpu kMiscompiled = {"recursiveGaussian", "gtx680"};

// Downward kernels: every Fig. 8 candidate is a padded variant of the
// original binary, so validation is exempt and the timing engine
// carries the job.  gtx680 only: srad on c2075 validates candidates.
const KernelOnGpu kPadded[] = {
    {"srad", "gtx680"},     {"streamcluster", "gtx680"},
    {"gaussian", "gtx680"}, {"backprop", "gtx680"},
    {"bfs", "gtx680"},
};

// service-mix: the kernels whose cold daemon job is cheapest (0.25-0.55
// s) and whose launch parameters do not vary per iteration, so the
// baseline runs on the same inputs.  Each content address (kernel +
// deadline budget) is submitted kServiceRepeats times: the first is
// cold, the rest are warm hits on the daemon's shared store.
constexpr const char* kServiceKernels[] = {
    "backprop", "recursiveGaussian", "matrixmul", "FDTD3d", "particles"};
constexpr int kServiceContentsPerKernel = 5;
constexpr int kServiceRepeats = 4;

// The orion-cc defaults a job mirrors (tools/orion_cc.cpp Args).
constexpr std::uint32_t kCliIters = 16;
constexpr std::uint32_t kCliProbes = 2;
constexpr std::size_t kCliGmemWords = std::size_t{1} << 22;
constexpr std::uint64_t kCliMemorySeed = 0x0410;
// Set-up is repeated and its median reported.
constexpr int kSetupRepeats = 3;

const arch::GpuSpec& GpuNamed(const std::string& name) {
  return name == "c2075" ? arch::TeslaC2075() : arch::Gtx680();
}

// The same image orion-cc's SeedMemory builds, from any seed.
sim::GlobalMemory SeedMemory(std::size_t words, std::uint64_t seed) {
  sim::GlobalMemory gmem(words);
  Rng rng(seed);
  for (std::size_t i = 0; i < words; ++i) {
    gmem.Write(i, static_cast<std::uint32_t>(rng.NextBounded(1000)) + 1);
  }
  return gmem;
}

std::uint64_t Mix(std::uint64_t seed, std::uint64_t salt) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + salt);
  return rng.Next();
}

template <typename T>
void Shuffle(std::vector<T>* items, std::uint64_t seed) {
  Rng rng(seed);
  for (std::size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[rng.NextBounded(i)]);
  }
}

std::uint64_t Bits(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

// One launch of the baseline::CompileDefault build (the paper's nvcc
// bar) on `gmem`: the reference for the model speedup and energy ratio.
sim::SimResult BaselineLaunch(const isa::Module& virt, const arch::GpuSpec& gpu,
                              sim::GlobalMemory gmem,
                              const std::vector<std::uint32_t>& params) {
  sim::GpuSimulator simulator(gpu, arch::CacheConfig::kSmallCache);
  return simulator.LaunchAll(baseline::CompileDefault(virt, gpu), &gmem,
                             params);
}

// ---------------------------------------------------------------------
// Job records.

struct JobRecord {
  int round = 0;
  bool traced = false;
  std::string name;  // kernel@gpu, or the service job id
  std::string kind;  // clean | miscompile | cold | warm
  double host_s = 0.0;
  bool ok = false;
  std::string why;  // first failed output check
  std::string final_tag;
  std::uint32_t settle = 0;
  double steady_ms = 0.0;
  double steady_energy = 0.0;
  double base_ms = 0.0;
  double base_energy = 0.0;
  std::uint64_t model_cycles = 0;
  std::uint32_t candidates = 0;
  std::uint32_t ok_verdicts = 0;
  std::string verdicts;
};

std::string Digest(const JobRecord& job) {
  return StrFormat("%s|%s|%s|%u|%016" PRIx64 "|%016" PRIx64 "|%" PRIu64
                   "|%s",
                   job.name.c_str(), job.kind.c_str(), job.final_tag.c_str(),
                   job.settle, Bits(job.steady_ms), Bits(job.steady_energy),
                   job.model_cycles, job.verdicts.c_str());
}

// ---------------------------------------------------------------------
// Benchmark spans.  They use the program's own telemetry buffer (one
// clock, one nesting) on the "bench" track; every span of a job nests
// inside that job's bench.job span, whose end event carries the job id.

#define BENCH_SPAN(name) ORION_TRACE_SPAN("bench", "bench." name)

// ---------------------------------------------------------------------
// tune-validated / tune-padded.

struct TuneKernel {
  std::string kernel;
  std::string gpu;
  bool miscompile = false;
  std::vector<std::uint8_t> cubin;
  double base_ms = 0.0;
  double base_energy = 0.0;
  // FNV-1a of every module a clean compile produces; a miscompile
  // job's candidate whose encoding is not in here was corrupted.
  std::set<std::uint64_t> clean_modules;
};

struct TuneSetup {
  std::vector<TuneKernel> jobs;  // in seeded order
  sim::GlobalMemory memory{0};
};

std::uint64_t ModuleHash(const isa::Module& module) {
  const std::vector<std::uint8_t> bytes = isa::EncodeModule(module);
  return persist::Fnv64(bytes.data(), bytes.size());
}

std::string SessionFingerprint() {
  // orion-cc's SessionFingerprint at the run defaults with --validate.
  return StrFormat(
      "cache=sc,engine=%d,iters=%u,probe_k=1,watchdog=0,validate=1,"
      "probes=%u",
      static_cast<int>(sim::SimEngine::kTraceCached), kCliIters, kCliProbes);
}

core::TuneOptions CliTuneOptions(std::uint64_t probe_seed) {
  core::TuneOptions options;
  options.cache_config = arch::CacheConfig::kSmallCache;
  options.validate = true;
  options.probe.probes = kCliProbes;
  options.probe.seed = probe_seed;
  options.compile_threads = 1;
  return options;
}

FaultPlan MiscompilePlan(std::uint64_t seed) {
  FaultPlan plan;
  plan.seed = Mix(seed, 7);
  plan.miscompile_slot = 1.0;
  return plan;
}

// Encodes the kernel and measures its baseline::CompileDefault build on
// `memory`; a miscompile job also records what a clean compile emits.
TuneKernel MakeTuneKernel(const KernelOnGpu& entry, bool miscompile,
                          const sim::GlobalMemory& memory) {
  TuneKernel job;
  job.kernel = entry.kernel;
  job.gpu = entry.gpu;
  job.miscompile = miscompile;
  const arch::GpuSpec& gpu = GpuNamed(job.gpu);
  const workloads::Workload w = workloads::MakeWorkload(job.kernel);
  job.cubin = isa::EncodeModule(w.module);
  const sim::SimResult base = BaselineLaunch(w.module, gpu, memory, {});
  job.base_ms = base.ms;
  job.base_energy = base.energy;
  if (miscompile) {
    core::TuneOptions options = CliTuneOptions(0);
    options.validate = false;
    for (const runtime::MultiVersionBinary& clean :
         {core::EnumerateAllVersions(w.module, gpu, options),
          core::CompileMultiVersion(w.module, gpu, options)}) {
      for (const isa::Module& m : clean.modules) {
        job.clean_modules.insert(ModuleHash(m));
      }
    }
  }
  return job;
}

TuneSetup SetUpTune(bool padded, std::uint64_t seed) {
  TuneSetup setup;
  setup.memory = SeedMemory(kCliGmemWords, Mix(seed, 1));
  std::vector<std::pair<KernelOnGpu, bool>> list;
  if (padded) {
    for (const KernelOnGpu& k : kPadded) list.push_back({k, false});
  } else {
    for (const KernelOnGpu& k : kValidated) list.push_back({k, false});
    list.push_back({kMiscompiled, true});
  }
  Shuffle(&list, Mix(seed, 2));
  for (const auto& [entry, miscompile] : list) {
    setup.jobs.push_back(MakeTuneKernel(entry, miscompile, setup.memory));
  }
  return setup;
}

// One `orion-cc run --validate --session DIR` job.  Fills `job` with the
// simulated outputs and the first failed output check.
void RunTuneJob(const TuneKernel& kernel, const sim::GlobalMemory& memory,
                std::uint64_t probe_seed, std::uint64_t seed,
                const std::string& session_dir, JobRecord* job) {
  const arch::GpuSpec& gpu = GpuNamed(kernel.gpu);
  sim::GlobalMemory gmem = memory;
  std::optional<ScopedFaultInjector> injector;
  if (kernel.miscompile) {
    injector.emplace(MiscompilePlan(seed));
  }
  runtime::MultiVersionBinary binary;
  runtime::TunedRunResult result;
  sim::SimResult last;
  bool locked = false;
  std::uint32_t locked_version = 0;
  const Clock::time_point start = Clock::now();
  {
    telemetry::ScopedSpan job_span("bench", "bench.job");
    job_span.AddArg("job", job->name);
    isa::Module module;
    {
      BENCH_SPAN("isa.decode");
      module = isa::DecodeModule(kernel.cubin);
    }
    std::unique_ptr<persist::Session> session;
    {
      BENCH_SPAN("persist.open");
      persist::SessionMeta meta;
      meta.kernel_hash =
          persist::Fnv64(kernel.cubin.data(), kernel.cubin.size());
      meta.gpu = kernel.gpu;
      meta.fingerprint = SessionFingerprint();
      Result<std::unique_ptr<persist::Session>> opened =
          persist::Session::Open(session_dir, meta);
      if (!opened.has_value()) {
        job->why = "session open: " + opened.status().ToString();
        return;
      }
      session = std::move(*opened);
    }
    {
      BENCH_SPAN("compile.multiversion");
      binary = core::CompileMultiVersion(module, gpu,
                                         CliTuneOptions(probe_seed));
    }
    {
      BENCH_SPAN("persist.save_binary");
      (void)session->SaveBinary(binary);
    }
    sim::GpuSimulator simulator(gpu, arch::CacheConfig::kSmallCache,
                                sim::SimEngine::kTraceCached);
    {
      BENCH_SPAN("runtime.run");
      runtime::TunedLauncher launcher(&binary, &simulator);
      runtime::RunPlan plan;
      plan.iterations = kCliIters;
      plan.journal = session.get();
      result = launcher.Run(&gmem, {}, plan);
    }
    {
      BENCH_SPAN("sim.final_launch");
      const runtime::KernelVersion& final_version =
          binary.Candidate(result.final_version);
      last = simulator.LaunchAll(binary.ModuleOf(final_version), &gmem, {},
                                 final_version.smem_padding_bytes);
    }
    locked = session->HasLock();
    locked_version = locked ? session->lock().final_version : 0;
    {
      BENCH_SPAN("persist.close");
      session.reset();
    }
  }
  job->host_s = Seconds(start, Clock::now());

  // ---- output checks (outside the timed job) ----
  job->final_tag = binary.Candidate(result.final_version).tag;
  job->settle = result.iterations_to_settle;
  job->steady_ms = result.steady_ms;
  job->steady_energy = result.steady_energy;
  job->model_cycles = last.cycles;
  job->base_ms = kernel.base_ms;
  job->base_energy = kernel.base_energy;
  std::set<std::uint32_t> entered;
  for (const runtime::IterationRecord& record : result.records) {
    entered.insert(record.version);
  }
  std::vector<std::string> fails;
  std::uint32_t corrupted = 0;
  for (std::size_t i = 0; i < binary.NumCandidates(); ++i) {
    const runtime::KernelVersion& version = binary.Candidate(i);
    const runtime::ValidationVerdict verdict = version.validation.verdict;
    const bool good = verdict == runtime::ValidationVerdict::kPass ||
                      verdict == runtime::ValidationVerdict::kExempt;
    ++job->candidates;
    job->ok_verdicts += good ? 1 : 0;
    if (!job->verdicts.empty()) job->verdicts += ",";
    job->verdicts += runtime::ValidationVerdictName(verdict);
    const bool was_corrupted =
        kernel.miscompile &&
        kernel.clean_modules.count(ModuleHash(binary.ModuleOf(version))) == 0;
    if (was_corrupted) {
      ++corrupted;
      if (!version.validation.Failed()) {
        fails.push_back("corrupted candidate " + version.tag +
                        " passed validation silently");
      }
      if (entered.count(static_cast<std::uint32_t>(i)) != 0) {
        fails.push_back("walk entered corrupted candidate " + version.tag);
      }
    } else if (!good) {
      fails.push_back("candidate " + version.tag + " verdict " +
                      runtime::ValidationVerdictName(verdict));
    }
  }
  if (kernel.miscompile && corrupted == 0) {
    fails.push_back("miscompile plan corrupted no candidate");
  }
  if (result.health.fallback_taken || result.health.watchdog_trips != 0 ||
      result.health.faulted_iterations != 0) {
    fails.push_back("unclean lock: " + result.health.ToString());
  }
  if (!locked || locked_version != result.final_version) {
    fails.push_back("session holds no lock on the final version");
  }
  if (result.records.size() != kCliIters ||
      result.iterations_to_settle > kCliIters || !(result.steady_ms > 0.0)) {
    fails.push_back("walk did not settle");
  }
  job->ok = fails.empty();
  job->why = fails.empty() ? "" : fails.front();
}

// ---------------------------------------------------------------------
// service-mix.

struct ServiceJob {
  service::JobSpec spec;
  int content = 0;
  bool cold = false;
};

struct ServiceSetup {
  std::vector<ServiceJob> jobs;  // in seeded submission order
  std::map<std::string, std::pair<double, double>> base;  // kernel -> ms, J
};

double DeadlineFor(int content) {
  // Distinct simulated-ms budgets, far above any job's total, so each
  // content address is its own cache entry and no job misses its budget.
  return 1000.0 + content;
}

ServiceSetup SetUpService(std::uint64_t seed, const std::string& root) {
  ServiceSetup setup;
  std::vector<int> tokens;
  int contents = 0;
  for (const char* kernel : kServiceKernels) {
    // The daemon launches on the workload's own memory and parameters.
    const workloads::Workload w = workloads::MakeWorkload(kernel);
    const sim::SimResult base = BaselineLaunch(
        w.module, arch::Gtx680(), workloads::SeedWorkloadMemory(w), w.params);
    setup.base[kernel] = {base.ms, base.energy};
    for (int c = 0; c < kServiceContentsPerKernel; ++c, ++contents) {
      for (int r = 0; r < kServiceRepeats; ++r) tokens.push_back(contents);
    }
  }
  Shuffle(&tokens, Mix(seed, 3));
  std::set<int> seen;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    ServiceJob job;
    job.content = tokens[i];
    job.cold = seen.insert(job.content).second;
    job.spec.id = StrFormat("j%03zu", i);
    job.spec.workload =
        kServiceKernels[job.content / kServiceContentsPerKernel];
    job.spec.deadline_ms = DeadlineFor(job.content);
    setup.jobs.push_back(job);
  }
  // The first daemon start creates the service root.
  service::DaemonOptions options;
  options.root = root;
  service::Daemon daemon(options);
  const Status started = daemon.Start();
  if (!started.ok()) {
    throw OrionError("service root: " + started.ToString());
  }
  return setup;
}

// One client submission followed by one orion-d pass on the same root.
void RunServiceJob(const ServiceJob& job, const std::string& root,
                   std::map<int, JobRecord>* cold_answers, JobRecord* out) {
  service::DaemonOptions options;
  options.root = root;
  service::Admission admission;
  Status started;
  const Clock::time_point start = Clock::now();
  {
    telemetry::ScopedSpan job_span("bench", "bench.job");
    job_span.AddArg("job", job.spec.id);
    service::Daemon daemon(options);
    {
      BENCH_SPAN("service.start");
      started = daemon.Start();
    }
    if (started.ok()) {
      {
        BENCH_SPAN("service.submit");
        admission = daemon.Submit(job.spec);
      }
      BENCH_SPAN("service.drain");
      daemon.ServeUntilDrained();
    }
  }
  out->host_s = Seconds(start, Clock::now());

  // ---- output checks ----
  std::vector<std::string> fails;
  if (!started.ok()) fails.push_back("daemon start: " + started.ToString());
  if (!admission.accepted) fails.push_back("rejected: " + admission.reason);
  const std::string jobdir = root + "/jobs/" + job.spec.id;
  const bool has_result = std::filesystem::exists(jobdir + "/result");
  const bool has_quarantine = std::filesystem::exists(jobdir + "/quarantine");
  if (has_result == has_quarantine) {
    fails.push_back("not exactly one terminal record");
  }
  Result<service::JobResult> answer = service::QueryJobDir(root, job.spec.id);
  if (!answer.has_value()) {
    fails.push_back("query: " + answer.status().ToString());
  } else {
    out->final_tag = answer->final_tag;
    out->settle = answer->iterations_to_settle;
    out->steady_ms = answer->steady_ms;
    if (answer->state != service::JobState::kLocked) {
      fails.push_back(std::string("state ") +
                      service::JobStateName(answer->state));
    } else if (answer->warm_hit == job.cold) {
      fails.push_back(job.cold ? "cold job served warm"
                               : "repeat job not served warm");
    } else if (answer->fallback_taken) {
      fails.push_back("fallback taken");
    }
  }
  if (job.cold) {
    if (answer.has_value()) {
      // The session lock carries the steady energy the answer omits.
      Result<std::unique_ptr<persist::Session>> session =
          persist::Session::Inspect(jobdir + "/session");
      if (session.has_value() && (*session)->HasLock()) {
        out->steady_energy = (*session)->lock().steady_energy;
      } else {
        fails.push_back("cold job left no session lock");
      }
    }
    (*cold_answers)[job.content] = *out;
  } else {
    auto it = cold_answers->find(job.content);
    if (it == cold_answers->end()) {
      fails.push_back("warm job before its cold job");
    } else if (it->second.final_tag != out->final_tag ||
               it->second.settle != out->settle ||
               Bits(it->second.steady_ms) != Bits(out->steady_ms)) {
      fails.push_back("warm answer differs from the cold lock");
    }
  }
  out->ok = fails.empty();
  out->why = fails.empty() ? "" : fails.front();
}

// ---------------------------------------------------------------------
// Span ledger: per span name, count, total and self seconds, computed
// by interval nesting over all threads (the run is serial: one client,
// one worker, compile fan-out off).

struct SpanTotals {
  std::uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

void AccumulateSpans(const std::vector<telemetry::TraceEvent>& events,
                     std::map<std::string, SpanTotals>* ledger) {
  struct Interval {
    std::string name;
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
  };
  std::vector<Interval> intervals;
  std::map<std::uint32_t, std::vector<std::size_t>> open;  // per thread
  for (const telemetry::TraceEvent& e : events) {
    if (e.phase == 'B') {
      open[e.thread].push_back(intervals.size());
      intervals.push_back({e.name, e.ts_ns, e.ts_ns});
    } else if (e.phase == 'E') {
      std::vector<std::size_t>& stack = open[e.thread];
      if (!stack.empty()) {
        intervals[stack.back()].end = e.ts_ns;
        stack.pop_back();
      }
    }
  }
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin != b.begin ? a.begin < b.begin : a.end > b.end;
            });
  std::vector<double> child(intervals.size(), 0.0);
  std::vector<std::size_t> stack;
  auto close = [&](std::size_t i) {
    const double dur = static_cast<double>(intervals[i].end -
                                           intervals[i].begin) * 1e-9;
    SpanTotals& totals = (*ledger)[intervals[i].name];
    ++totals.count;
    totals.total_s += dur;
    totals.self_s += dur - child[i];
  };
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    while (!stack.empty() &&
           intervals[stack.back()].end <= intervals[i].begin) {
      close(stack.back());
      stack.pop_back();
    }
    if (!stack.empty()) {
      child[stack.back()] += static_cast<double>(intervals[i].end -
                                                 intervals[i].begin) * 1e-9;
    }
    stack.push_back(i);
  }
  while (!stack.empty()) {
    close(stack.back());
    stack.pop_back();
  }
}

// ---------------------------------------------------------------------
// JSON output.

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += StrFormat("\\u%04x", c);
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  return std::isfinite(v) ? StrFormat("%.17g", v) : "null";
}

std::string JobJson(const JobRecord& j) {
  return StrFormat(
      "{\"round\":%d,\"traced\":%s,\"name\":%s,\"kind\":%s,\"host_s\":%s,"
      "\"ok\":%s,\"why\":%s,\"final\":%s,\"settle\":%u,\"steady_ms\":%s,"
      "\"steady_energy\":%s,\"base_ms\":%s,\"base_energy\":%s,"
      "\"model_cycles\":%" PRIu64 ",\"candidates\":%u,\"ok_verdicts\":%u,"
      "\"verdicts\":%s}",
      j.round, j.traced ? "true" : "false", JsonString(j.name).c_str(),
      JsonString(j.kind).c_str(), JsonNumber(j.host_s).c_str(),
      j.ok ? "true" : "false", JsonString(j.why).c_str(),
      JsonString(j.final_tag).c_str(), j.settle,
      JsonNumber(j.steady_ms).c_str(), JsonNumber(j.steady_energy).c_str(),
      JsonNumber(j.base_ms).c_str(), JsonNumber(j.base_energy).c_str(),
      j.model_cycles, j.candidates, j.ok_verdicts,
      JsonString(j.verdicts).c_str());
}

// ---------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work;
  std::string parity;  // kernel@gpu for the CLI parity job, or empty
};

[[noreturn]] void Usage() {
  std::fprintf(stderr,
               "usage: perfbench_jobs --workload tune-validated|"
               "tune-padded|service-mix --seed N --seconds S --trace 0|1 "
               "--work DIR [--parity KERNEL@GPU]\n");
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage();
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value());
    } else if (flag == "--trace") {
      args.trace = value() != "0";
    } else if (flag == "--work") {
      args.work = value();
    } else if (flag == "--parity") {
      args.parity = value();
      if (args.parity.find('@') == std::string::npos) Usage();
    } else {
      Usage();
    }
  }
  if (args.work.empty() ||
      (args.workload != "tune-validated" && args.workload != "tune-padded" &&
       args.workload != "service-mix")) {
    Usage();
  }
  return args;
}

int Main(const Args& args) {
  namespace fs = std::filesystem;
  fs::create_directories(args.work);
  const bool service_mix = args.workload == "service-mix";
  const bool padded = args.workload == "tune-padded";

  // ---- set-up, repeated; the last repetition's inputs are used ----
  std::vector<double> setup_s;
  TuneSetup tune;
  ServiceSetup svc;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const std::string root = args.work + StrFormat("/setup%d", r);
    const Clock::time_point start = Clock::now();
    if (service_mix) {
      svc = SetUpService(args.seed, root);
    } else {
      tune = SetUpTune(padded, args.seed);
    }
    setup_s.push_back(Seconds(start, Clock::now()));
  }
  const std::uint64_t probe_seed = Mix(args.seed, 4);

  // ---- timed rounds ----
  std::vector<JobRecord> jobs;
  std::vector<double> round_s;
  std::map<std::string, std::map<std::string, SpanTotals>> ledger;  // kind
  std::map<std::string, std::uint64_t> counters;
  std::uint64_t dropped = 0;
  const int min_rounds = args.trace ? 2 : 1;
  double elapsed = 0.0;
  for (int round = 0;; ++round) {
    const bool traced = args.trace && round % 2 == 1;
    telemetry::Reset();
    telemetry::SetEnabled(traced);
    double round_job_s = 0.0;
    // Spans and counters are drained after every traced job, so the
    // ledger keeps one entry per job kind and the buffer stays small.
    auto finish_job = [&](const JobRecord& rec) {
      round_job_s += rec.host_s;
      jobs.push_back(rec);
      if (traced) {
        AccumulateSpans(telemetry::SnapshotEvents(), &ledger[rec.kind]);
        for (const auto& [name, value] : telemetry::SnapshotCounters()) {
          counters[name] += value;
        }
        dropped += telemetry::DroppedEvents();
        telemetry::Reset();
      }
    };
    const Clock::time_point round_start = Clock::now();
    const std::string dir = args.work + StrFormat("/round%d", round);
    fs::create_directories(dir);
    if (service_mix) {
      std::map<int, JobRecord> cold_answers;
      for (const ServiceJob& job : svc.jobs) {
        JobRecord rec;
        rec.round = round;
        rec.traced = traced;
        rec.name = job.spec.id + ":" + job.spec.workload;
        rec.kind = job.cold ? "cold" : "warm";
        RunServiceJob(job, dir, &cold_answers, &rec);
        if (job.cold) {
          const auto& base = svc.base.at(job.spec.workload);
          rec.base_ms = base.first;
          rec.base_energy = base.second;
        }
        finish_job(rec);
      }
    } else {
      for (std::size_t i = 0; i < tune.jobs.size(); ++i) {
        const TuneKernel& kernel = tune.jobs[i];
        JobRecord rec;
        rec.round = round;
        rec.traced = traced;
        rec.name = kernel.kernel + "@" + kernel.gpu;
        rec.kind = kernel.miscompile ? "miscompile" : "clean";
        RunTuneJob(kernel, tune.memory, probe_seed, args.seed,
                   dir + StrFormat("/job%zu", i), &rec);
        finish_job(rec);
      }
    }
    telemetry::SetEnabled(false);
    // Round directories stay until the run ends: deleting a tree makes
    // the file system slow for the jobs that follow it.
    round_s.push_back(round_job_s);
    elapsed += Seconds(round_start, Clock::now());
    const int done = round + 1;
    if (done >= min_rounds && elapsed + elapsed / done > args.seconds) {
      break;
    }
  }

  // ---- CLI parity job: orion-cc's own memory image and probe seed ----
  std::string parity_line;
  if (!args.parity.empty()) {
    const std::size_t at = args.parity.find('@');
    TuneKernel kernel = MakeTuneKernel(
        {args.parity.substr(0, at), args.parity.substr(at + 1)},
        /*miscompile=*/false, SeedMemory(kCliGmemWords, kCliMemorySeed));
    JobRecord rec;
    rec.name = args.parity;
    RunTuneJob(kernel, SeedMemory(kCliGmemWords, kCliMemorySeed),
               validate::ProbeOptions{}.seed, 0, args.work + "/parity", &rec);
    parity_line = StrFormat(
        "final: %s (settled after %u iterations), steady %.4f ms",
        rec.final_tag.c_str(), rec.settle, rec.steady_ms);
  }

  // One digest per round: every round runs the same jobs on the same
  // inputs, so every round must reproduce the same simulated outputs.
  std::vector<std::uint64_t> digests(round_s.size(), 0xcbf29ce484222325ull);
  for (const JobRecord& j : jobs) {
    const std::string line = Digest(j);
    digests[j.round] ^= persist::Fnv64(line.data(), line.size());
    digests[j.round] *= 0x100000001b3ull;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);

  std::string out = "{\"workload\":" + JsonString(args.workload);
  out += StrFormat(",\"seed\":%" PRIu64, args.seed);
  out += ",\"setup_s\":[";
  for (std::size_t i = 0; i < setup_s.size(); ++i) {
    out += (i ? "," : "") + JsonNumber(setup_s[i]);
  }
  out += "],\"round_s\":[";
  for (std::size_t i = 0; i < round_s.size(); ++i) {
    out += (i ? "," : "") + JsonNumber(round_s[i]);
  }
  out += "],\"jobs\":[";
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    out += (i ? "," : "") + JobJson(jobs[i]);
  }
  out += "],\"spans\":{";
  bool first = true;
  for (const auto& [kind, spans] : ledger) {
    out += StrFormat("%s%s:{", first ? "" : ",", JsonString(kind).c_str());
    first = true;
    for (const auto& [name, t] : spans) {
      out += StrFormat("%s%s:{\"count\":%" PRIu64 ",\"total_s\":%s,"
                       "\"self_s\":%s}",
                       first ? "" : ",", JsonString(name).c_str(), t.count,
                       JsonNumber(t.total_s).c_str(),
                       JsonNumber(t.self_s).c_str());
      first = false;
    }
    out += "}";
    first = false;
  }
  out += "},\"counters\":{";
  first = true;
  for (const auto& [name, v] : counters) {
    out += StrFormat("%s%s:%" PRIu64, first ? "" : ",",
                     JsonString(name).c_str(), v);
    first = false;
  }
  out += StrFormat("},\"dropped_events\":%" PRIu64, dropped);
  out += ",\"round_digests\":[";
  for (std::size_t i = 0; i < digests.size(); ++i) {
    out += StrFormat("%s\"%016" PRIx64 "\"", i ? "," : "", digests[i]);
  }
  out += "]";
  out += ",\"peak_rss_mb\":" +
         JsonNumber(static_cast<double>(usage.ru_maxrss) / 1024.0);
  out += ",\"parity\":" + JsonString(parity_line) + "}";
  std::printf("%s\n", out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Main(Parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_jobs: %s\n", e.what());
    return 1;
  }
}
