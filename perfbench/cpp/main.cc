/**
 * @file
 * fleet_perfbench: runs one named workload repeatedly for a fixed
 * host-time budget and writes the raw measurements as JSON. run.py
 * builds this binary, turns the raw record into the metrics listed in
 * BENCHMARK.json and prints the result line.
 *
 *   fleet_perfbench --workload batch|serve|pipeline --seed N
 *                   --seconds S --threads T --trace 0|1 --out FILE
 *
 * Every run first builds the workload's inputs and golden outputs from
 * the seed and warms the jit artifact cache (FLEET_JIT_CACHE_DIR) for
 * the workload's programs. It then runs --seconds divided by the
 * workload's nominal repetition time repetitions, at least two; every
 * one must reproduce the first one's simulated record exactly. With
 * --trace 1 the repetitions alternate untraced and traced, and the
 * standalone layer probes run once at the end.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>

#include "compile/compiler.h"
#include "perfbench.h"
#include "rtl/jit.h"
#include "rtl/opt.h"
#include "rtl/tape.h"
#include "sim/simulator.h"
#include "system/fleet_system.h"
#include "system/pu_backend.h"

#ifndef FLEET_PERFBENCH_BUILD_TYPE
#define FLEET_PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;
using namespace fleet;

namespace {

struct Options
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0;
    int threads = 0;
    bool trace = false;
    std::string out;
};

struct Rep
{
    bool traced = false;
    RepTimes times;
    int rootSpan = -1; ///< Traced repetitions: the repetition's span.
};

struct JitWarmth
{
    bool available = false;
    bool wasWarm = false; ///< Every artifact came from the disk cache.
    std::string cacheDir;
};

int
usage()
{
    std::fprintf(stderr,
                 "usage: fleet_perfbench --workload batch|serve|pipeline"
                 " --seed N --seconds S --threads T --trace 0|1"
                 " --out FILE\n");
    return 2;
}

bool
parse(int argc, char **argv, Options &opts)
{
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char *value = argv[i + 1];
        char *end = nullptr;
        if (flag == "--workload") {
            opts.workload = value;
        } else if (flag == "--seed") {
            opts.seed = std::strtoull(value, &end, 10);
            have_seed = *end == '\0';
        } else if (flag == "--seconds") {
            opts.seconds = std::strtod(value, &end);
            have_seconds = *end == '\0' && opts.seconds > 0;
        } else if (flag == "--threads") {
            opts.threads = int(std::strtol(value, &end, 10));
            if (*end != '\0' || opts.threads < 1)
                return false;
        } else if (flag == "--trace") {
            opts.trace = std::strcmp(value, "1") == 0;
            have_trace = opts.trace || std::strcmp(value, "0") == 0;
        } else if (flag == "--out") {
            opts.out = value;
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && have_seed && have_seconds && have_trace &&
           opts.threads > 0 && !opts.out.empty();
}

/** Tapes of the workload's programs, as the RTL engines lower them. */
std::vector<rtl::TapeProgram>
lowerPrograms(const std::vector<lang::Program> &programs)
{
    std::vector<rtl::TapeProgram> tapes;
    for (const lang::Program &program : programs)
        tapes.push_back(rtl::TapeProgram::compile(
            compile::compileProgram(program).circuit));
    return tapes;
}

/** Compile every program into the benchmark's jit cache, so a default
 * backend that uses the jit never pays a cold compile in the timed
 * path. Reports whether the cache was already warm. */
JitWarmth
warmJitCache(const Workload &workload)
{
    JitWarmth warmth;
    const char *dir = std::getenv("FLEET_JIT_CACHE_DIR");
    warmth.cacheDir = dir ? dir : "";
    warmth.available = rtl::JitProgram::availability().ok();
    if (!warmth.available)
        return warmth;
    rtl::JitOptions opts;
    opts.lanes = workload.lanesPerChannel();
    warmth.wasWarm = true;
    for (const rtl::TapeProgram &tape : lowerPrograms(workload.programs())) {
        auto program = rtl::JitProgram::compile(tape, opts);
        warmth.wasWarm &= program && program->fromDiskCache();
    }
    return warmth;
}

/**
 * The standalone layer probes: each public call timed on the workload's
 * own programs (and one stream per program for the functional model).
 */
std::map<std::string, double>
runProbes(const Workload &workload, Tracer &tracer,
          const std::string &cold_dir)
{
    Scope root(tracer, "bench.probes");
    std::map<std::string, double> out = {
        {"sim.functional_s", 0},  {"compile.compile_s", 0},
        {"rtl.opt_s", 0},         {"rtl.tape_s", 0},
        {"rtl.jit_warm_s", 0},    {"rtl.jit_cold_s", 0}};
    const std::vector<lang::Program> programs = workload.programs();
    const std::vector<BitBuffer> streams = workload.probeStreams();
    auto timed = [&](const char *span, const char *metric, auto &&fn) {
        auto t0 = Clock::now();
        {
            Scope s(tracer, span);
            fn();
        }
        out[metric] += secondsBetween(t0, Clock::now());
    };
    const bool jit = rtl::JitProgram::availability().ok();
    for (size_t p = 0; p < programs.size(); ++p) {
        timed("sim.functional", "sim.functional_s", [&] {
            sim::FunctionalSimulator functional(programs[p]);
            functional.run(streams[p]);
        });
        std::optional<compile::CompiledUnit> unit;
        timed("compile.compile", "compile.compile_s",
              [&] { unit.emplace(compile::compileProgram(programs[p])); });
        std::optional<rtl::OptResult> optimized;
        timed("rtl.opt", "rtl.opt_s",
              [&] { optimized.emplace(rtl::optimize(unit->circuit)); });
        rtl::TapeProgram tape;
        timed("rtl.tape", "rtl.tape_s", [&] {
            tape = rtl::TapeProgram::compile(optimized->circuit, false);
        });
        if (!jit)
            continue;
        rtl::JitOptions opts;
        opts.lanes = workload.lanesPerChannel();
        // Warm first: nothing holds warmJitCache()'s instance any more, so
        // this is a disk-cache hit, as a fresh process would see it.
        timed("rtl.jit_warm", "rtl.jit_warm_s",
              [&] { rtl::JitProgram::compile(tape, opts); });
        opts.cacheDir = cold_dir;
        opts.forceRecompile = true;
        timed("rtl.jit_cold", "rtl.jit_cold_s",
              [&] { rtl::JitProgram::compile(tape, opts); });
    }
    return out;
}

double
peakRssMB()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0;
}

// ------------------------------------------------------------ JSON out

std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

std::string
number(double x)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", x);
    return buf;
}

template <typename Map>
std::string
numberMap(const Map &map)
{
    std::string out = "{";
    for (const auto &[key, value] : map)
        out += (out.size() > 1 ? ", " : "") + quote(key) + ": " +
               number(double(value));
    return out + "}";
}

void
writeJson(std::FILE *f, const Options &opts, const Workload &workload,
          const JitWarmth &jit, const SimRecord &sim, bool deterministic,
          double prepare_s, double peak_rss_mb, const std::vector<Rep> &reps,
          const std::map<std::string, double> &probes,
          const std::vector<Span> &spans)
{
    std::fprintf(f, "{\n\"workload\": %s,\n", quote(opts.workload).c_str());
    std::fprintf(f, "\"seed\": %llu,\n", (unsigned long long)opts.seed);
    std::fprintf(f, "\"seconds\": %s,\n", number(opts.seconds).c_str());
    std::fprintf(f, "\"num_threads\": %d,\n", opts.threads);
    std::fprintf(f, "\"nproc\": %u,\n", std::thread::hardware_concurrency());
    std::fprintf(f, "\"build_type\": %s,\n",
                 quote(FLEET_PERFBENCH_BUILD_TYPE).c_str());
    std::fprintf(f, "\"default_backend\": %s,\n",
                 quote(system::puBackendName(system::SystemConfig{}.backend))
                     .c_str());
    std::fprintf(f, "\"backend\": %s,\n", quote(sim.backend).c_str());
    std::fprintf(f,
                 "\"jit\": {\"available\": %s, \"cache_dir\": %s, "
                 "\"cache_was_warm\": %s},\n",
                 jit.available ? "true" : "false",
                 quote(jit.cacheDir).c_str(),
                 jit.wasWarm ? "true" : "false");
    std::fprintf(f, "\"shape\": %s,\n", numberMap(workload.shape()).c_str());
    std::fprintf(f, "\"prepare_s\": %s,\n", number(prepare_s).c_str());
    std::fprintf(f, "\"attempted\": %llu,\n",
                 (unsigned long long)sim.attempted);
    std::fprintf(f, "\"failed\": %llu,\n", (unsigned long long)sim.failed);
    std::fprintf(f, "\"deterministic\": %s,\n",
                 deterministic ? "true" : "false");
    std::fprintf(f, "\"sim\": %s,\n", numberMap(sim.values).c_str());
    std::fprintf(f, "\"latencies\": {");
    bool first = true;
    for (const auto &[group, samples] : sim.latencies) {
        std::fprintf(f, "%s\n  %s: [", first ? "" : ",",
                     quote(group).c_str());
        for (size_t i = 0; i < samples.size(); ++i)
            std::fprintf(f, "%s%llu", i ? ", " : "",
                         (unsigned long long)samples[i]);
        std::fprintf(f, "]");
        first = false;
    }
    std::fprintf(f, "},\n\"reps\": [");
    for (size_t i = 0; i < reps.size(); ++i) {
        const Rep &rep = reps[i];
        std::fprintf(f,
                     "%s\n  {\"traced\": %s, \"wall_s\": %s, "
                     "\"setup_s\": %s, \"library_s\": %s, "
                     "\"input_bytes\": %llu, \"root_span\": %d}",
                     i ? "," : "", rep.traced ? "true" : "false",
                     number(rep.times.wallS).c_str(),
                     number(rep.times.setupS).c_str(),
                     number(rep.times.libraryS).c_str(),
                     (unsigned long long)rep.times.inputBytes,
                     rep.rootSpan);
    }
    std::fprintf(f, "],\n\"probes\": %s,\n", numberMap(probes).c_str());
    std::fprintf(f, "\"peak_rss_MB\": %s,\n", number(peak_rss_mb).c_str());
    std::fprintf(f, "\"spans\": [");
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::fprintf(f, "%s\n  [%s, %s, %s, %s, %d, %lld]", i ? "," : "",
                     quote(s.name).c_str(), quote(s.tag).c_str(),
                     number(s.start).c_str(), number(s.end).c_str(),
                     s.parent, (long long)s.job);
    }
    std::fprintf(f, "]\n}\n");
}

int
run(const Options &opts)
{
    const auto epoch = Clock::now();
    Tracer tracer(epoch);

    std::unique_ptr<Workload> workload =
        makeWorkload(opts.workload, opts.seed, opts.threads);
    if (!workload)
        return usage();
    const double prepare_s = secondsBetween(epoch, Clock::now());
    const JitWarmth jit = warmJitCache(*workload);

    // The first repetition's simulated record is the reference every
    // later one must reproduce, and the peak RSS after it is the
    // footprint of one pass: later repetitions only add allocator
    // churn, whose amount depends on the host's speed through the
    // repetition count.
    SimRecord reference;
    double peak_rss_mb = 0;
    bool deterministic = true;

    // The repetition count comes from --seconds and the workload's
    // nominal repetition time, never from the clock: each repetition is
    // slower than the one before it (README.md explains why), so a
    // host-speed-dependent count would move the medians.
    const size_t repetitions = std::max<size_t>(
        2, size_t(std::lround(opts.seconds /
                              workload->nominalRepetitionSeconds())));
    std::vector<Rep> reps;
    while (reps.size() < repetitions) {
        Rep rep;
        rep.traced = opts.trace && reps.size() % 2 == 1;
        tracer.setEnabled(rep.traced);
        if (rep.traced)
            rep.rootSpan = int(tracer.spans().size());
        SimRecord sim;
        auto t0 = Clock::now();
        {
            Scope root(tracer, "bench.repetition", {}, int64_t(reps.size()));
            rep.times = workload->runOnce(tracer, sim);
        }
        rep.times.wallS = secondsBetween(t0, Clock::now());
        if (reps.empty()) {
            reference = sim;
            peak_rss_mb = peakRssMB();
        }
        deterministic &= sim == reference;
        reps.push_back(rep);
    }

    std::map<std::string, double> probes;
    if (opts.trace) {
        tracer.setEnabled(true);
        const std::string cold_dir =
            (std::filesystem::path(opts.out).parent_path() / "jit-cold")
                .string();
        probes = runProbes(*workload, tracer, cold_dir);
        tracer.setEnabled(false);
    }

    std::FILE *f = std::fopen(opts.out.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", opts.out.c_str());
        return 1;
    }
    writeJson(f, opts, *workload, jit, reference, deterministic, prepare_s,
              peak_rss_mb, reps, probes, tracer.spans());
    if (std::fclose(f) != 0) {
        std::fprintf(stderr, "cannot write %s\n", opts.out.c_str());
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    if (!parse(argc, argv, opts))
        return usage();
    try {
        return run(opts);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "fleet_perfbench: %s\n", e.what());
        return 1;
    }
}
