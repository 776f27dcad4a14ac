/**
 * @file
 * The three benchmark workloads, driven only through the library's
 * public API. Each one leaves every setting it does not name at the
 * library default (the PU backend included), so a change of default
 * shows in the numbers. Inputs come from the workload seed alone.
 *
 *  - batch:    Figure 7 in miniature. One-shot FleetSystem per app,
 *              construction inside the timed path (streams enter
 *              through the constructor).
 *  - serve:    paced FleetService, Regex and SmithWaterman on
 *              alternating slots, two tenants, open-loop Poisson
 *              arrivals at three fixed rates.
 *  - pipeline: JsonParsing on device 0 feeding Regex on device 1 over
 *              the default link, as a closed loop.
 */

#include <algorithm>
#include <cmath>
#include <iterator>
#include <memory>

#include "apps/registry.h"
#include "cluster/pipeline.h"
#include "perfbench.h"
#include "serve/load_gen.h"
#include "serve/service.h"
#include "system/fleet_system.h"
#include "system/pu_backend.h"
#include "util/rng.h"

namespace perfbench {

using namespace fleet;

namespace {

/** Independent per-purpose seed streams from the one workload seed. */
uint64_t
subSeed(uint64_t seed, uint64_t purpose)
{
    Rng rng(seed ^ (0x9e3779b97f4a7c15ULL * (purpose + 1)));
    return rng.next();
}

double
geomean(const std::vector<double> &xs)
{
    double log_sum = 0;
    for (double x : xs)
        log_sum += std::log(x);
    return std::exp(log_sum / double(xs.size()));
}

double
mean(uint64_t sum, uint64_t count)
{
    return count ? double(sum) / double(count) : 0.0;
}

/** Destroy a library object inside a span, counted as library time. */
template <typename T>
void
destroy(std::unique_ptr<T> &object, Tracer &tracer, const char *span,
        const std::string &tag, RepTimes &times)
{
    auto t0 = Clock::now();
    {
        Scope s(tracer, span, tag);
        object.reset();
    }
    times.libraryS += secondsBetween(t0, Clock::now());
}

/** Input GB per simulated second at the modelled clock. */
double
simGBps(double bytes, double cycles, double clock_mhz)
{
    return bytes / cycles * clock_mhz * 1e6 / 1e9;
}

// ---------------------------------------------------------------- batch

/** PUs per memory channel and bytes per PU stream in `batch`. */
constexpr int kBatchPusPerChannel = 48;
constexpr uint64_t kBatchStreamBytes = 2048;

class BatchWorkload : public Workload
{
  public:
    BatchWorkload(uint64_t seed, int threads)
        : apps_(apps::allApplications())
    {
        config_.numThreads = threads;
        const int pus = config_.numChannels * kBatchPusPerChannel;
        for (size_t a = 0; a < apps_.size(); ++a) {
            Rng rng(subSeed(seed, a));
            streams_.emplace_back();
            goldens_.emplace_back();
            for (int pu = 0; pu < pus; ++pu) {
                streams_[a].push_back(
                    apps_[a]->generateStream(rng, kBatchStreamBytes));
                goldens_[a].push_back(apps_[a]->golden(streams_[a][pu]));
            }
        }
    }

    RepTimes runOnce(Tracer &tracer, SimRecord &sim) override
    {
        RepTimes times;
        std::vector<double> bytes_per_cycle, jobs_per_mcycle;
        std::vector<uint64_t> &latencies = sim.latencies[""];
        uint64_t pu_cycles = 0;
        for (size_t a = 0; a < apps_.size(); ++a) {
            const std::string tag = apps_[a]->name();
            Scope unit(tracer, "bench.app", tag);
            std::unique_ptr<system::FleetSystem> sys =
                setUp(a, tracer, times);
            auto t0 = Clock::now();
            const system::RunReport *report = nullptr;
            {
                Scope s(tracer, "system.run", tag);
                report = &sys->run();
            }
            std::vector<BitBuffer> outputs;
            {
                Scope s(tracer, "system.readback", tag);
                for (int pu = 0; pu < sys->numPus(); ++pu)
                    outputs.push_back(sys->output(pu));
            }
            times.libraryS += secondsBetween(t0, Clock::now());

            {
                Scope check(tracer, "bench.check", tag);
                sim.backend = system::puBackendName(sys->slotBackend(0));
                for (int pu = 0; pu < sys->numPus(); ++pu) {
                    ++sim.attempted;
                    times.inputBytes += streams_[a][pu].sizeBits() / 8;
                    const system::PuOutcome &outcome = report->pus[pu];
                    if (outcome.status.code != StatusCode::Ok ||
                        outputs[pu] != goldens_[a][pu])
                        ++sim.failed;
                    latencies.push_back(outcome.atCycle);
                }
                const system::SystemStats stats = sys->stats();
                uint64_t cycles = 0, starved = 0, blocked = 0, beats = 0,
                         read_queue = 0, channel_cycles = 0;
                for (const system::ChannelStats &ch : stats.channels) {
                    cycles += ch.cycles * uint64_t(ch.numPus);
                    starved += ch.inputStarvedCycles;
                    blocked += ch.outputBlockedCycles;
                    beats += ch.beatsDelivered + ch.beatsWritten;
                    read_queue += ch.readQueueOccupancySum;
                    channel_cycles += ch.cycles;
                }
                pu_cycles += cycles;
                sim.values["sim_bytes_per_cycle." + tag] =
                    stats.bytesPerCycle();
                sim.values["memctl.input_starved_share." + tag] =
                    mean(starved, cycles);
                sim.values["memctl.output_blocked_share." + tag] =
                    mean(blocked, cycles);
                sim.values["dram.bus_util." + tag] =
                    mean(beats, channel_cycles);
                sim.values["dram.read_queue_depth." + tag] =
                    mean(read_queue, channel_cycles);
                bytes_per_cycle.push_back(stats.bytesPerCycle());
                jobs_per_mcycle.push_back(double(sys->numPus()) * 1e6 /
                                          double(stats.cycles));
            }
            destroy(sys, tracer, "system.destroy", tag, times);
        }
        sim.values["sim_GBps"] =
            simGBps(geomean(bytes_per_cycle), 1.0, config_.clockMHz);
        sim.values["sim_jobs_per_Mcycle"] = geomean(jobs_per_mcycle);
        sim.values["system.pu_cycles"] = double(pu_cycles);
        return times;
    }


    std::vector<lang::Program> programs() const override
    {
        std::vector<lang::Program> out;
        for (const auto &app : apps_)
            out.push_back(app->program());
        return out;
    }

    std::vector<BitBuffer> probeStreams() const override
    {
        std::vector<BitBuffer> out;
        for (const auto &streams : streams_)
            out.push_back(streams.front());
        return out;
    }

    double nominalRepetitionSeconds() const override { return 5.0; }

    int lanesPerChannel() const override { return kBatchPusPerChannel; }

    std::map<std::string, double> shape() const override
    {
        return {{"apps", double(apps_.size())},
                {"channels", double(config_.numChannels)},
                {"pus_per_channel", double(kBatchPusPerChannel)},
                {"stream_bytes", double(kBatchStreamBytes)}};
    }

  private:
    /** Build app `a`'s program and construct its system over the
     * streams, adding the time to `times`' set-up and library time. */
    std::unique_ptr<system::FleetSystem> setUp(size_t a, Tracer &tracer,
                                               RepTimes &times) const
    {
        const std::string tag = apps_[a]->name();
        auto t0 = Clock::now();
        lang::Program program;
        {
            Scope s(tracer, "lang.build", tag);
            program = apps_[a]->program();
        }
        auto t1 = Clock::now();
        std::vector<BitBuffer> streams;
        {
            Scope s(tracer, "bench.copy_inputs", tag);
            streams = streams_[a];
        }
        auto t2 = Clock::now();
        std::unique_ptr<system::FleetSystem> sys;
        {
            Scope s(tracer, "system.construct", tag);
            sys = std::make_unique<system::FleetSystem>(
                program, config_, std::move(streams));
        }
        const double setup_s =
            secondsBetween(t0, t1) + secondsBetween(t2, Clock::now());
        times.setupS += setup_s;
        times.libraryS += setup_s;
        return sys;
    }

    std::vector<std::unique_ptr<apps::Application>> apps_;
    system::SystemConfig config_;
    std::vector<std::vector<BitBuffer>> streams_;
    std::vector<std::vector<BitBuffer>> goldens_;
};

// ---------------------------------------------------------------- serve

/**
 * The three fixed offered loads, in jobs per simulated Mcycle. Not
 * calibrated per run: a faster model shows as lower latency. lo and
 * mid sit below the pool's capacity, hi above it (README.md records
 * how they were fixed).
 */
struct Rate
{
    const char *label;
    double jobsPerMcycle;
    /** At least 1000, so the ten-beyond rule supports p99. mid carries
     * the end-to-end latency and hi the capacity, so they get more jobs
     * for steadier figures across seeds. */
    uint64_t jobs;
};
constexpr Rate kRates[] = {
    {"lo", 2000.0, 1000}, {"mid", 6000.0, 2000}, {"hi", 24000.0, 2000}};
constexpr size_t kOverloadRate = 2;
constexpr uint64_t kServeMinJobBytes = 128;
constexpr uint64_t kServeMaxJobBytes = 512;
constexpr int kServeSlots = 8;
constexpr size_t kServeQueueDepth = 64;
constexpr uint32_t kServeTenants = 2;

class ServeWorkload : public Workload
{
  public:
    ServeWorkload(uint64_t seed, int threads)
    {
        apps_.push_back(apps::makeApplication("Regex"));
        apps_.push_back(apps::makeApplication("SmithWaterman"));
        config_.session.system.numThreads = threads;
        config_.session.numSlots = kServeSlots;
        config_.maxQueueDepth = kServeQueueDepth;
        config_.policy = serve::AdmissionPolicy::Reject;
        config_.backgroundThread = false;
        for (int s = 0; s < kServeSlots; ++s)
            bindings_.push_back({uint32_t(s % 2), 0, std::nullopt});

        for (size_t r = 0; r < std::size(kRates); ++r) {
            serve::LoadSpec spec;
            spec.jobs = kRates[r].jobs;
            spec.meanInterarrivalCycles = 1e6 / kRates[r].jobsPerMcycle;
            spec.minJobBytes = kServeMinJobBytes;
            spec.maxJobBytes = kServeMaxJobBytes;
            spec.seed = subSeed(seed, 100 + r);
            Point point;
            point.arrivals = serve::makeArrivals(spec);
            Rng rng(subSeed(seed, 200 + r));
            for (const serve::Arrival &arrival : point.arrivals) {
                runtime::JobTag tag;
                tag.programIndex = uint32_t(rng.nextBelow(apps_.size()));
                tag.tenant = uint32_t(rng.nextBelow(kServeTenants));
                const apps::Application &app = *apps_[tag.programIndex];
                point.streams.push_back(
                    app.generateStream(rng, arrival.streamBytes));
                point.goldens.push_back(app.golden(point.streams.back()));
                point.tags.push_back(tag);
            }
            points_.push_back(std::move(point));
        }
    }

    RepTimes runOnce(Tracer &tracer, SimRecord &sim) override
    {
        RepTimes times;
        double lag_sum = 0;
        uint64_t lag_count = 0;
        for (size_t r = 0; r < points_.size(); ++r) {
            const std::string tag = kRates[r].label;
            const Point &point = points_[r];
            Scope unit(tracer, "bench.rate", tag);
            std::unique_ptr<serve::FleetService> service =
                setUp(tag, tracer, times);

            // Open loop on the simulated clock. The session clock only
            // moves while work is in flight, so when the pool goes idle
            // the schedule is shifted forward to the next arrival (an
            // event-driven queue simulation); within busy periods every
            // job is stamped with the cycle it was due.
            std::vector<serve::JobTicket> tickets;
            tickets.reserve(point.arrivals.size());
            const size_t n = point.arrivals.size();
            size_t next = 0;
            uint64_t offset = point.arrivals.front().cycle;
            uint64_t rounds = 0;
            double library_s = 0;
            for (;;) {
                const uint64_t now = service->stats().simCycles;
                while (next < n &&
                       point.arrivals[next].cycle <= now + offset) {
                    const uint64_t due = point.arrivals[next].cycle;
                    lag_sum += double(now + offset - due);
                    ++lag_count;
                    serve::SubmitOptions options;
                    options.tag = point.tags[next];
                    BitBuffer stream;
                    {
                        Scope s(tracer, "bench.copy_inputs", tag,
                                int64_t(next));
                        stream = point.streams[next];
                    }
                    auto s0 = Clock::now();
                    {
                        Scope s(tracer, "serve.submit", tag, int64_t(next));
                        tickets.push_back(service->submitAt(
                            std::move(stream), due - offset, options));
                    }
                    library_s += secondsBetween(s0, Clock::now());
                    ++next;
                }
                auto p0 = Clock::now();
                bool work;
                {
                    Scope s(tracer, "serve.pump", tag);
                    work = service->pump();
                }
                library_s += secondsBetween(p0, Clock::now());
                ++rounds;
                if (!work) {
                    if (next >= n)
                        break;
                    const uint64_t virtual_now = now + offset;
                    if (point.arrivals[next].cycle > virtual_now)
                        offset += point.arrivals[next].cycle - virtual_now;
                }
            }
            const uint64_t last_due =
                point.arrivals.back().cycle - offset;
            auto d0 = Clock::now();
            {
                Scope s(tracer, "serve.shutdown", tag);
                service->shutdown();
            }
            library_s += secondsBetween(d0, Clock::now());
            times.libraryS += library_s;

            {
                Scope check(tracer, "bench.check", tag);
                sim.backend = system::puBackendName(
                    service->session().system().slotBackend(0));
                recordPoint(sim, r, *service, tickets, last_due, rounds);
                for (const BitBuffer &stream : point.streams)
                    times.inputBytes += stream.sizeBits() / 8;
            }
            destroy(service, tracer, "serve.destroy", tag, times);
        }
        sim.values["serve.generator_lag_cycles"] =
            lag_count ? lag_sum / double(lag_count) : 0.0;
        sim.latencies[""] = sim.latencies["mid"];
        return times;
    }


    std::vector<lang::Program> programs() const override
    {
        std::vector<lang::Program> out;
        for (const auto &app : apps_)
            out.push_back(app->program());
        return out;
    }

    std::vector<BitBuffer> probeStreams() const override
    {
        std::vector<BitBuffer> out(apps_.size());
        for (size_t i = 0; i < points_[0].streams.size(); ++i)
            if (out[points_[0].tags[i].programIndex].sizeBits() == 0)
                out[points_[0].tags[i].programIndex] =
                    points_[0].streams[i];
        return out;
    }

    double nominalRepetitionSeconds() const override { return 7.0; }

    int lanesPerChannel() const override
    {
        return kServeSlots / config_.session.system.numChannels;
    }

    std::map<std::string, double> shape() const override
    {
        std::map<std::string, double> out = {
            {"slots", double(kServeSlots)},
            {"min_job_bytes", double(kServeMinJobBytes)},
            {"max_job_bytes", double(kServeMaxJobBytes)},
            {"max_queue_depth", double(kServeQueueDepth)}};
        for (const Rate &rate : kRates) {
            out[std::string("rate_jobs_per_Mcycle.") + rate.label] =
                rate.jobsPerMcycle;
            out[std::string("jobs.") + rate.label] = double(rate.jobs);
        }
        return out;
    }

  private:
    struct Point
    {
        std::vector<serve::Arrival> arrivals;
        std::vector<BitBuffer> streams;
        std::vector<BitBuffer> goldens;
        std::vector<runtime::JobTag> tags;
    };

    /** Build the programs and construct one rate's service, adding the
     * time to `times`' set-up and library time. */
    std::unique_ptr<serve::FleetService>
    setUp(const std::string &tag, Tracer &tracer, RepTimes &times) const
    {
        auto t0 = Clock::now();
        std::vector<lang::Program> programs;
        {
            Scope s(tracer, "lang.build", tag);
            for (const auto &app : apps_)
                programs.push_back(app->program());
        }
        std::unique_ptr<serve::FleetService> service;
        {
            Scope s(tracer, "serve.construct", tag);
            service = std::make_unique<serve::FleetService>(
                std::move(programs), config_, bindings_);
        }
        const double setup_s = secondsBetween(t0, Clock::now());
        times.setupS += setup_s;
        times.libraryS += setup_s;
        return service;
    }

    void recordPoint(SimRecord &sim, size_t r,
                     const serve::FleetService &service,
                     const std::vector<serve::JobTicket> &tickets,
                     uint64_t last_due, uint64_t rounds) const
    {
        const std::string tag = kRates[r].label;
        const Point &point = points_[r];
        std::vector<uint64_t> &latencies = sim.latencies[tag];
        uint64_t wait = 0, service_cycles = 0, ok = 0;
        double lag = 0;
        uint64_t rejected = 0, last_done = 0, ok_bytes = 0;
        for (size_t i = 0; i < tickets.size(); ++i) {
            ++sim.attempted;
            const runtime::JobReport &report = tickets[i].report();
            if (report.status.code == StatusCode::ResourceExhausted) {
                // Refusal is the admission layer's designed answer to
                // overload; below capacity it is a failure.
                ++rejected;
                if (r != kOverloadRate)
                    ++sim.failed;
                continue;
            }
            if (report.status.code != StatusCode::Ok ||
                report.output != point.goldens[i]) {
                ++sim.failed;
                continue;
            }
            ++ok;
            ok_bytes += point.streams[i].sizeBits() / 8;
            latencies.push_back(report.totalCycles());
            wait += report.queueWaitCycles();
            service_cycles += report.serviceCycles();
            // Retire moved onto the session clock by the arm-time offset
            // between the shard's clock and the session's: what is left
            // of the latency after queueing and service is the wait for
            // the harvesting round.
            lag += double(report.totalCycles()) -
                   double(report.queueWaitCycles()) -
                   double(report.serviceCycles());
            last_done = std::max(last_done, report.completedCycle);
        }
        const serve::ServiceStats stats = service.stats();
        uint64_t busy = 0;
        for (const runtime::JobReport &report : service.session().reports())
            busy += report.serviceCycles();
        sim.values["runtime.rounds." + tag] = double(rounds);
        sim.values["runtime.queue_wait_cycles." + tag] = mean(wait, ok);
        sim.values["runtime.service_cycles." + tag] =
            mean(service_cycles, ok);
        sim.values["runtime.harvest_lag_cycles." + tag] =
            ok ? lag / double(ok) : 0.0;
        sim.values["runtime.slot_occupancy." + tag] =
            mean(busy, stats.simCycles * uint64_t(kServeSlots));
        sim.values["serve.rejected." + tag] = double(rejected);
        sim.values["serve.drain_cycles." + tag] =
            double(last_done > last_due ? last_done - last_due : 0);
        for (const auto &[tenant, t] : stats.tenants)
            sim.values["runtime.tenant_wait_cycles.t" +
                       std::to_string(tenant) + "." + tag] =
                mean(t.queueWaitCycles, t.completed);
        if (r == kOverloadRate) {
            // Above capacity the pool never idles, so delivered work
            // over the session clock is the service's capacity.
            sim.values["sim_GBps"] =
                simGBps(double(ok_bytes), double(stats.simCycles),
                        config_.session.system.clockMHz);
            sim.values["sim_jobs_per_Mcycle"] =
                double(ok) * 1e6 / double(stats.simCycles);
        }
    }

    std::vector<std::unique_ptr<apps::Application>> apps_;
    serve::ServiceConfig config_;
    std::vector<system::SlotBinding> bindings_;
    std::vector<Point> points_;
};

// ------------------------------------------------------------- pipeline

constexpr uint64_t kPipelineJobs = 1000;
/** Jobs kept outstanding by the closed loop: four times stage 0's
 * slots, so stage 0 never idles. Smaller windows lock into phases of
 * the scheduler epoch that differ from seed to seed. */
constexpr uint64_t kPipelineOutstanding = 16;
constexpr int kPipelineSlotsPerStage = 4;
constexpr uint64_t kPipelineJobBytes = 1024;

class PipelineWorkload : public Workload
{
  public:
    PipelineWorkload(uint64_t seed, int threads)
        : json_(apps::makeApplication("JsonParsing")),
          regex_(apps::makeApplication("Regex"))
    {
        config_.system.numThreads = threads;
        Rng rng(subSeed(seed, 300));
        for (uint64_t j = 0; j < kPipelineJobs; ++j) {
            streams_.push_back(json_->generateStream(rng, kPipelineJobBytes));
            goldens_.push_back(
                regex_->golden(json_->golden(streams_.back())));
        }
    }

    RepTimes runOnce(Tracer &tracer, SimRecord &sim) override
    {
        RepTimes times;
        const std::string tag = "pipeline";
        Scope unit(tracer, "bench.pipeline", tag);
        std::unique_ptr<cluster::Pipeline> pipeline = setUp(tracer, times);
        double library_s = 0;

        // Closed loop: keep kPipelineOutstanding jobs in the pipeline,
        // submitting the next one as soon as one completes.
        std::vector<uint64_t> outstanding;
        uint64_t next = 0, rounds = 0;
        auto submit_next = [&] {
            BitBuffer stream;
            {
                Scope s(tracer, "bench.copy_inputs", tag, int64_t(next));
                stream = streams_[next];
            }
            auto s0 = Clock::now();
            {
                Scope s(tracer, "cluster.submit", tag, int64_t(next));
                outstanding.push_back(pipeline->submit(std::move(stream)));
            }
            library_s += secondsBetween(s0, Clock::now());
            ++next;
        };
        while (next < kPipelineOutstanding && next < kPipelineJobs)
            submit_next();
        while (!outstanding.empty()) {
            auto p0 = Clock::now();
            {
                Scope s(tracer, "cluster.step", tag);
                pipeline->step();
            }
            library_s += secondsBetween(p0, Clock::now());
            ++rounds;
            // A finished job always has a nonzero done cycle: every
            // stage takes at least one cycle.
            size_t kept = 0;
            size_t finished = 0;
            for (uint64_t id : outstanding) {
                if (pipeline->reports()[id].doneCycle == 0)
                    outstanding[kept++] = id;
                else
                    ++finished;
            }
            outstanding.resize(kept);
            for (; finished > 0 && next < kPipelineJobs; --finished)
                submit_next();
        }
        auto f0 = Clock::now();
        const cluster::ClusterReport *cluster_report = nullptr;
        {
            Scope s(tracer, "cluster.finish", tag);
            cluster_report = &pipeline->finish();
        }
        library_s += secondsBetween(f0, Clock::now());
        times.libraryS += library_s;

        {
            Scope check(tracer, "bench.check", tag);
            sim.backend = system::puBackendName(
                pipeline->cluster().deviceSystem(0).slotBackend(0));
            if (!cluster_report->allOk())
                ++sim.failed;
            std::vector<uint64_t> &latencies = sim.latencies[""];
            uint64_t s0 = 0, s1 = 0, wire = 0, ok = 0;
            for (uint64_t j = 0; j < kPipelineJobs; ++j) {
                ++sim.attempted;
                times.inputBytes += streams_[j].sizeBits() / 8;
                const cluster::PipelineJobReport &report = pipeline->report(j);
                if (report.status.code != StatusCode::Ok ||
                    report.output != goldens_[j]) {
                    ++sim.failed;
                    continue;
                }
                ++ok;
                latencies.push_back(report.totalCycles());
                s0 += report.stageRetireCycle[0] - report.stageArmCycle[0];
                s1 += report.stageRetireCycle[1] - report.stageArmCycle[1];
                wire += report.stageArmCycle[1] - report.stageRetireCycle[0];
            }
            const uint64_t cycles = pipeline->cycles();
            const cluster::LinkCounters &link =
                pipeline->cluster().link(0, 1).counters();
            sim.values["cluster.rounds"] = double(rounds);
            sim.values["cluster.stage_service_cycles.s0"] = mean(s0, ok);
            sim.values["cluster.stage_service_cycles.s1"] = mean(s1, ok);
            sim.values["cluster.wire_wait_cycles"] = mean(wire, ok);
            sim.values["cluster.link_busy_share"] =
                mean(link.busyCycles, cycles);
            sim.values["cluster.link_bits"] = double(link.bitsDelivered);
            sim.values["sim_jobs_per_Mcycle"] =
                double(ok) * 1e6 / double(cycles);
            sim.values["sim_GBps"] =
                simGBps(double(times.inputBytes), double(cycles),
                        config_.system.clockMHz);
        }
        destroy(pipeline, tracer, "cluster.destroy", tag, times);
        return times;
    }


    std::vector<lang::Program> programs() const override
    {
        return {json_->program(), regex_->program()};
    }

    std::vector<BitBuffer> probeStreams() const override
    {
        return {streams_.front(), json_->golden(streams_.front())};
    }

    double nominalRepetitionSeconds() const override { return 7.0; }

    int lanesPerChannel() const override
    {
        return std::max(1, kPipelineSlotsPerStage /
                               config_.system.numChannels);
    }

    std::map<std::string, double> shape() const override
    {
        return {{"jobs", double(kPipelineJobs)},
                {"outstanding", double(kPipelineOutstanding)},
                {"slots_per_stage", double(kPipelineSlotsPerStage)},
                {"job_bytes", double(kPipelineJobBytes)}};
    }

  private:
    /** Build both programs and construct the pipeline, adding the time
     * to `times`' set-up and library time. */
    std::unique_ptr<cluster::Pipeline> setUp(Tracer &tracer,
                                             RepTimes &times) const
    {
        auto t0 = Clock::now();
        std::vector<cluster::StageSpec> stages;
        {
            Scope s(tracer, "lang.build", "pipeline");
            stages.push_back(
                {json_->program(), 0, kPipelineSlotsPerStage});
            stages.push_back(
                {regex_->program(), 1, kPipelineSlotsPerStage});
        }
        std::unique_ptr<cluster::Pipeline> pipeline;
        {
            Scope s(tracer, "cluster.construct", "pipeline");
            pipeline = std::make_unique<cluster::Pipeline>(
                std::move(stages), config_);
        }
        const double setup_s = secondsBetween(t0, Clock::now());
        times.setupS += setup_s;
        times.libraryS += setup_s;
        return pipeline;
    }

    std::unique_ptr<apps::Application> json_;
    std::unique_ptr<apps::Application> regex_;
    cluster::PipelineConfig config_;
    std::vector<BitBuffer> streams_;
    std::vector<BitBuffer> goldens_;
};

} // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string &name, uint64_t seed, int threads)
{
    if (name == "batch")
        return std::make_unique<BatchWorkload>(seed, threads);
    if (name == "serve")
        return std::make_unique<ServeWorkload>(seed, threads);
    if (name == "pipeline")
        return std::make_unique<PipelineWorkload>(seed, threads);
    return nullptr;
}

} // namespace perfbench
