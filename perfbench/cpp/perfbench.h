#ifndef FLEET_PERFBENCH_PERFBENCH_H
#define FLEET_PERFBENCH_PERFBENCH_H

/**
 * @file
 * Shared pieces of the end-to-end benchmark: the span recorder used by
 * traced repetitions, and the result records one repetition produces.
 * Everything here lives on the benchmark's side of the library's public
 * API; the library itself is never instrumented.
 */

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "lang/ast.h"
#include "util/bitbuf.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** One timed interval of benchmark code around a call into a layer. */
struct Span
{
    std::string name;
    /** Workload unit the span belongs to: app, rate or stage label. */
    std::string tag;
    double start = 0; ///< Seconds since the tracer's epoch.
    double end = 0;
    int parent = -1;  ///< Index of the enclosing span; -1 = root.
    int64_t job = -1; ///< Job id for per-job spans; -1 = none.
};

/**
 * In-memory span recorder. Spans are kept until the process writes them
 * out at exit. A disabled tracer records nothing, so untraced
 * repetitions pay one branch per call site.
 */
class Tracer
{
  public:
    explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}

    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    int open(const char *name, const std::string &tag, int64_t job)
    {
        if (!enabled_)
            return -1;
        Span span;
        span.name = name;
        span.tag = tag;
        span.start = secondsBetween(epoch_, Clock::now());
        span.parent = stack_.empty() ? -1 : stack_.back();
        span.job = job;
        spans_.push_back(std::move(span));
        stack_.push_back(static_cast<int>(spans_.size()) - 1);
        return stack_.back();
    }

    void close(int id)
    {
        if (id < 0)
            return;
        spans_[id].end = secondsBetween(epoch_, Clock::now());
        stack_.pop_back();
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    Clock::time_point epoch_;
    bool enabled_ = false;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span: open on construction, close on scope exit. */
class Scope
{
  public:
    Scope(Tracer &tracer, const char *name, const std::string &tag = {},
          int64_t job = -1)
        : tracer_(tracer), id_(tracer.open(name, tag, job))
    {
    }
    ~Scope() { tracer_.close(id_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &tracer_;
    int id_;
};

/** Host-clock figures of one repetition of a workload. */
struct RepTimes
{
    /** Whole repetition, the benchmark's own work included. */
    double wallS = 0;
    /** Program build plus system/service/pipeline construction. */
    double setupS = 0;
    /** Time inside library calls: set-up, run/pump/step, readback. */
    double libraryS = 0;
    uint64_t inputBytes = 0;
};

/**
 * Everything simulated one repetition produced, plus its correctness
 * tally. A pure function of the workload's inputs: every repetition of
 * a run must produce an identical record.
 */
struct SimRecord
{
    /** Named simulated metrics and counters (cycles, shares, counts). */
    std::map<std::string, double> values;
    /** Per-job end-to-end latency samples, by group ("" = the workload's
     * headline group). */
    std::map<std::string, std::vector<uint64_t>> latencies;
    uint64_t attempted = 0;
    /** Wrong outputs, non-Ok completions and refusals below capacity. */
    uint64_t failed = 0;
    /** PU backend the library resolved for the workload's slots. */
    std::string backend;

    bool operator==(const SimRecord &other) const = default;
};

class Workload
{
  public:
    virtual ~Workload() = default;
    /** Run the whole workload once over the prepared inputs. */
    virtual RepTimes runOnce(Tracer &tracer, SimRecord &sim) = 0;
    /** Distinct programs the workload runs, for the standalone probes. */
    virtual std::vector<fleet::lang::Program> programs() const = 0;
    /** One input stream per program(), for the functional probe. */
    virtual std::vector<fleet::BitBuffer> probeStreams() const = 0;
    /** Seconds one repetition takes on the reference host (README.md);
     * sets the repetition count for a given --seconds. */
    virtual double nominalRepetitionSeconds() const = 0;
    /** PUs per memory channel; the jit probe specializes for it. */
    virtual int lanesPerChannel() const = 0;
    /** Facts about the workload's shape, for provenance. */
    virtual std::map<std::string, double> shape() const = 0;
};

std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       uint64_t seed, int threads);

} // namespace perfbench

#endif // FLEET_PERFBENCH_PERFBENCH_H
