/**
 * @file
 * The three workloads.  Why each exists, and which layer metric should
 * move which end-to-end metric on it, is in perfbench/NOTES.md.
 */

#include <cmath>
#include <limits>
#include <optional>

#include "common/rng.h"
#include "lut/table_cache.h"
#include "nn/workload.h"
#include "probes.h"
#include "serving/scheduler.h"
#include "serving/token_engine.h"
#include "workload.h"

using namespace localut;

namespace perfbench {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/** Activation columns each GEMM output is checked on. */
constexpr std::size_t kCheckColumns = 2;
/**
 * Deadline budgets, fixed so that a change to the code under test
 * cannot move its own deadline: about 1.25x the modeled time of a
 * decode step (0.014636 model s) and of a prefill pass (0.012006
 * model s) when the benchmark was written.  Every GEMM of a step or
 * pass is due this long after the step or pass starts.
 */
constexpr double kDecodeStepBudget = 0.0183;
constexpr double kPrefillPassBudget = 0.0150;

/** Modeled seconds of one timing-only execution of @p problem. */
double
modeledSeconds(const Backend& backend, const GemmProblem& problem,
               DesignPoint design)
{
    return backend
        .execute(problem, backend.plan(problem, design),
                 /*computeValues=*/false)
        .timing.total;
}

/** NaivePIM over LoCaLUT modeled seconds summed over @p problems. */
double
speedup(const Backend& backend, const std::vector<GemmProblem>& problems)
{
    double naive = 0, localut = 0;
    for (const GemmProblem& problem : problems) {
        naive += modeledSeconds(backend, problem, DesignPoint::NaivePim);
        localut += modeledSeconds(backend, problem, DesignPoint::LoCaLut);
    }
    return naive / localut;
}

/** Flips one checked output value (the checker self-test). */
void
corrupt(std::vector<std::int32_t>& out, const ColumnCheck& check)
{
    out[check.columns[0]] ^= 1;
}

/** Median self seconds of the spans named @p name (0 when none). */
double
selfMedian(const Tracer& tracer, const std::string& name)
{
    const auto spans = tracer.selfSeconds();
    const auto it = spans.find(name);
    return it == spans.end() ? 0 : median(it->second);
}

// ------------------------------------------------------------------ decode

/**
 * OPT-125M W4A4 decode at batch 8: each request is one decode step of
 * 48 GEMMs (12 layers x 4 roles, every layer its own weights) sent by
 * one closed-loop client through the SLO scheduler to a one-rank
 * session with warm cost-aware residency.
 */
class Decode final : public Workload
{
  public:
    explicit Decode(const Settings& settings) : settings_(settings) {}

    unsigned workers() const override { return settings_.hands; }

    std::string describe() const override
    {
        return "opt125m W4A4 decode step, batch 8, 48 GEMMs, 1 rank, "
               "slo scheduler, closed loop, 1 client";
    }

    void prepare() override
    {
        InputGen gen(settings_.seed);
        for (unsigned layer = 0; layer < model_.layers; ++layer) {
            for (const RoleShape& shape : roleShapes(model_, kBatch)) {
                problems_.push_back(
                    gen.problem(shape.m, shape.k, shape.n, quant_));
                checks_.push_back(
                    ColumnCheck::of(problems_.back(), gen, kCheckColumns));
            }
        }
        outs_.resize(problems_.size());
    }

    void setup() override
    {
        scheduler_.reset();
        session_.reset();
        LutTableCache::global().clear();
        SessionOptions options;
        options.workers = settings_.hands;
        options.computeValues = true;
        options.residencyPolicy = ResidencyPolicy::CostAware;
        session_ = std::make_unique<InferenceSession>(makeBackend("upmem"),
                                                      options);
        scheduler_ = std::make_unique<RequestScheduler>(*session_);
        clock_ = 0;
        deadline_ = kInf; // the cold step is never shed
        run(nullptr);     // plans, operands, tables
        deadline_ = kDecodeStepBudget;
        queueWait_ = admitted_ = gemms_ = 0;
    }

    Sample run(Tracer* tracer) override
    {
        const double arrival = clock_;
        std::vector<AdmissionDecision> decisions(problems_.size());
        std::vector<RequestSample> samples(problems_.size());
        Sample sample;
        const Clock::time_point start = Clock::now();
        for (std::size_t i = 0; i < problems_.size(); ++i) {
            // Requests own their operands, so each one copies the weights.
            std::optional<Tracer::Scope> copy(std::in_place, tracer,
                                              "request.copy");
            ServingRequest request = ServingRequest::gemm(
                problems_[i], DesignPoint::LoCaLut,
                DeadlineClass::Interactive, deadline_);
            request.arrivalSeconds = arrival;
            copy.reset();
            Tracer::Scope span(tracer, "scheduler.submit");
            decisions[i] = scheduler_->submit(std::move(request));
        }
        for (std::size_t i = 0; i < problems_.size(); ++i) {
            Tracer::Scope span(tracer, "scheduler.wait");
            ServingResult result = scheduler_->wait(decisions[i].id);
            samples[i] = result.sample;
            outs_[i] = std::move(result.gemm.outInt);
        }
        sample.hostSeconds = since(start);

        if (corrupt_) {
            corrupt(outs_[0], checks_[0]);
            corrupt_ = false;
        }
        // One client on one rank: the step's GEMMs run back to back, so
        // its latency is the sum of their service times (summed rather
        // than taken as completion - arrival, which rounds differently
        // as the virtual clock grows).
        bool matched = true, served = true;
        double end = arrival, latency = 0;
        for (std::size_t i = 0; i < problems_.size(); ++i) {
            const bool admitted = decisions[i].admitted();
            served = served && admitted;
            matched = matched && (!admitted || checks_[i].matches(outs_[i]));
            sample.deadlineMet += admitted && samples[i].deadlineMet();
            end = std::max(end, samples[i].completionSeconds);
            latency += samples[i].serviceSeconds;
            queueWait_ += samples[i].queueDelaySeconds();
            ++gemms_;
            admitted_ += admitted;
            sample.tokens += static_cast<double>(problems_[i].n());
        }
        clock_ = end;
        sample.requests = 1;
        sample.verified = matched && served;
        sample.refused = matched && !served;
        sample.modeled = {latency};
        sample.deadlineTotal = static_cast<double>(problems_.size());
        return sample;
    }

    double speedupVsNaive() override
    {
        return speedup(session_->backend(), problems_);
    }

    void layerMetrics(const Tracer& tracer, Metrics& out) override
    {
        InputGen gen(settings_.seed ^ 0x9e0be5);
        probeLayers({"upmem", model_, quant_, kBatch, settings_.hands}, gen,
                    out);
        out["scheduler.submit_us"].value =
            selfMedian(tracer, "scheduler.submit") * 1e6;
        out["scheduler.queue_wait_modeled_s"].value =
            queueWait_ / static_cast<double>(gemms_);
        out["scheduler.admitted_share"].value =
            admitted_ / static_cast<double>(gemms_);
        const PlanCache::Stats cache = session_->planCacheStats();
        out["plan_cache.prepared_hit_ratio"].value =
            static_cast<double>(cache.preparedHits) /
            static_cast<double>(cache.preparedHits + cache.preparedMisses);
        const ResidencyStats residency = session_->residencyStats();
        out["residency.table_hit_ratio"].value = residency.hitRate();
        out["residency.evictions"].value =
            static_cast<double>(residency.evictions);
        out["residency.kv_spills"].value =
            static_cast<double>(residency.kvSpills);
        out["residency.broadcast_modeled_s"].value =
            residency.broadcastSeconds;
    }

  private:
    static constexpr std::size_t kBatch = 8;

    Settings settings_;
    TransformerConfig model_ = TransformerConfig::opt125m();
    QuantConfig quant_ = QuantConfig::preset("W4A4");
    std::vector<GemmProblem> problems_;
    std::vector<ColumnCheck> checks_;
    std::vector<std::vector<std::int32_t>> outs_;
    std::unique_ptr<InferenceSession> session_;
    std::unique_ptr<RequestScheduler> scheduler_;
    double clock_ = 0;
    double deadline_ = kInf;
    double queueWait_ = 0, admitted_ = 0, gemms_ = 0;
};

// --------------------------------------------------------- prefill_sharded

/**
 * BERT-base W4A4 prefill, batch 2 x 128 tokens (n = 256): each request
 * is one pass over 2 layers x 4 roles, every GEMM cut column-parallel
 * across 4 ranks by the session itself (no pinned rank, no scheduler).
 */
class PrefillSharded final : public Workload
{
  public:
    explicit PrefillSharded(const Settings& settings) : settings_(settings)
    {
    }

    unsigned workers() const override { return settings_.hands; }

    std::string describe() const override
    {
        return "bert-base W4A4 prefill, n=256, 8 GEMMs (2 layers), "
               "column-parallel over 4 ranks";
    }

    void prepare() override
    {
        InputGen gen(settings_.seed);
        for (unsigned layer = 0; layer < kLayers; ++layer) {
            for (const RoleShape& shape : roleShapes(model_, kColumns)) {
                problems_.push_back(
                    gen.problem(shape.m, shape.k, shape.n, quant_));
                checks_.push_back(
                    ColumnCheck::of(problems_.back(), gen, kCheckColumns));
            }
        }
        outs_.resize(problems_.size());
    }

    void setup() override
    {
        session_.reset();
        LutTableCache::global().clear();
        SessionOptions options;
        options.workers = settings_.hands;
        options.numRanks = kShardRanks;
        options.computeValues = true;
        session_ = std::make_unique<InferenceSession>(makeBackend("upmem"),
                                                      options);
        run(nullptr); // shard plans, operands, tables
    }

    Sample run(Tracer* tracer) override
    {
        Sample sample;
        double modeled = 0;
        const Clock::time_point start = Clock::now();
        for (std::size_t i = 0; i < problems_.size(); ++i) {
            InferenceSession::RequestId id = 0;
            std::optional<Tracer::Scope> copy(std::in_place, tracer,
                                              "request.copy");
            GemmProblem problem = problems_[i];
            copy.reset();
            {
                Tracer::Scope span(tracer, "session.submit");
                id = session_->submit(std::move(problem),
                                      DesignPoint::LoCaLut);
            }
            Tracer::Scope span(tracer, "session.wait");
            GemmResult result = session_->wait(id);
            modeled += result.timing.total;
            // The GEMMs run back to back, so this one completes at the
            // pass's modeled time so far.
            sample.deadlineMet += modeled <= kPrefillPassBudget;
            outs_[i] = std::move(result.outInt);
        }
        sample.hostSeconds = since(start);

        if (corrupt_) {
            corrupt(outs_[0], checks_[0]);
            corrupt_ = false;
        }
        bool ok = true;
        for (std::size_t i = 0; i < problems_.size(); ++i) {
            ok = ok && checks_[i].matches(outs_[i]);
            sample.tokens += static_cast<double>(problems_[i].n());
        }
        sample.requests = 1;
        sample.verified = ok;
        sample.modeled = {modeled};
        sample.deadlineTotal = static_cast<double>(problems_.size());
        return sample;
    }

    double speedupVsNaive() override
    {
        return speedup(session_->backend(), problems_);
    }

    void layerMetrics(const Tracer& tracer, Metrics& out) override
    {
        // session.request_us on the workload's own 4-rank path: a traced
        // pass's submit + wait time, per GEMM.
        const auto submit = tracer.requestSeconds("session.submit");
        std::vector<double> perGemm;
        for (const auto& [id, wait] : tracer.requestSeconds("session.wait")) {
            perGemm.push_back((submit.at(id) + wait) /
                              static_cast<double>(problems_.size()));
        }
        InputGen gen(settings_.seed ^ 0x9e0be5);
        probeLayers({"upmem", model_, quant_, kColumns, settings_.hands,
                     kShardRanks, median(perGemm)},
                    gen, out);
        double collective = 0;
        for (const GemmProblem& problem : problems_) {
            collective += session_
                              ->shardPlan(problem, DesignPoint::LoCaLut)
                              .collectiveSeconds;
        }
        out["sharding.collective_modeled_s"].value =
            collective / static_cast<double>(problems_.size());
        const PlanCache::Stats cache = session_->planCacheStats();
        out["plan_cache.prepared_hit_ratio"].value =
            static_cast<double>(cache.preparedHits) /
            static_cast<double>(cache.preparedHits + cache.preparedMisses);
    }

  private:
    static constexpr unsigned kLayers = 2;
    static constexpr std::size_t kColumns = 256; // batch 2 x seq 128

    Settings settings_;
    TransformerConfig model_ = TransformerConfig::bertBase();
    QuantConfig quant_ = QuantConfig::preset("W4A4");
    std::vector<GemmProblem> problems_;
    std::vector<ColumnCheck> checks_;
    std::vector<std::vector<std::int32_t>> outs_;
    std::unique_ptr<InferenceSession> session_;
};

// ------------------------------------------------------------ conversation

/** Field-wise equality of two stream outcomes.  Stream ids are salted
 * per engine, so they are compared relative to each replay's first. */
bool
sameStream(const StreamResult& a, std::uint64_t aBase, const StreamResult& b,
           std::uint64_t bBase)
{
    return a.id - aBase == b.id - bBase && a.status == b.status &&
           a.rank == b.rank &&
           a.arrivalSeconds == b.arrivalSeconds &&
           a.firstTokenSeconds == b.firstTokenSeconds &&
           a.completionSeconds == b.completionSeconds &&
           a.tokenSeconds == b.tokenSeconds &&
           a.tokenDeadlines == b.tokenDeadlines && a.ttftMet == b.ttftMet &&
           a.tokensMet == b.tokensMet && a.tokensMissed == b.tokensMissed;
}

/**
 * A Poisson trace of OPT-125M W4A4 conversations served by the token
 * engine (continuous batching, SLO policy) at twice the serial
 * capacity, with an MRAM budget tight enough to spill KV and evict
 * table sets.  Timing only: a request is one conversation, a sample is
 * one whole replay of the trace on a fresh session.
 */
class Conversation final : public Workload
{
  public:
    explicit Conversation(const Settings& settings) : settings_(settings) {}

    unsigned workers() const override { return 1; }

    std::string describe() const override
    {
        return "opt125m W4A4 token engine, 6003 conversations, prompts "
               "8/16/32, decodes 4/8/16, 2x serial load, 200 kB MRAM "
               "budget, 1 rank";
    }

    void prepare() override
    {
        // Deadlines and the arrival rate follow the modeled service
        // times, computed as the conversation bench in bench/ does.
        SessionOptions options;
        options.workers = 1;
        options.residencyPolicy = ResidencyPolicy::CostAware;
        InferenceSession probe(makeBackend("upmem"), options);
        const auto project = [&](const WorkloadSpec& spec) {
            return probe
                .projectCost(probe.compileUnsharded(spec, quant_,
                                                    DesignPoint::LoCaLut))
                .totalSeconds();
        };
        const TokenEngineOptions engine;
        const unsigned tier = engine.maxStreamsPerRank;
        const double prefillMax =
            project(WorkloadSpec::prefill(model_, 1, kPrompts[2]));
        const double stepFull = project(
            WorkloadSpec::decodeStep(model_, tier, kPrompts[2] + kDecodes[2]));
        const double stepOne = project(
            WorkloadSpec::decodeStep(model_, 1, kPrompts[2] + kDecodes[2]));
        const std::uint64_t tokenBytes =
            static_cast<std::uint64_t>(model_.layers) *
            model_.kvBytesPerTokenPerLayer(engine.kvBitsPerValue);
        const double kvToken = probe.residency()->broadcastSeconds(tokenBytes);
        const double kvPrompt =
            probe.residency()->broadcastSeconds(tokenBytes * kPrompts[2]);
        const double ttft = tier * (prefillMax + kvPrompt) +
                            2.0 * (stepFull + tier * kvToken);
        const double tokenDeadline = 3.0 * stepFull + 2.0 * tier * kvToken;
        const double serial =
            prefillMax + kvPrompt +
            (kDecodes[0] + kDecodes[1] + kDecodes[2]) / 3.0 *
                (stepOne + kvToken);
        const double rate = kLoad / serial;

        // Stratified Poisson trace: every (prompt, decode) pair occurs
        // equally often and the inter-arrival gaps are the exponential
        // distribution's quantiles; the seed shuffles both.  The seed
        // still decides who arrives when, but not how much work or how
        // long a span the trace holds, which would otherwise move the
        // modeled metrics from seed to seed.
        InputGen gen(settings_.seed);
        Rng rng(gen.next());
        const std::size_t count = kPerPair * std::size(kPrompts) *
                                  std::size(kDecodes);
        std::vector<std::pair<unsigned, unsigned>> lengths;
        for (const unsigned prompt : kPrompts) {
            for (const unsigned decode : kDecodes) {
                lengths.insert(lengths.end(), kPerPair, {prompt, decode});
            }
        }
        std::vector<double> gaps(count);
        for (std::size_t i = 0; i < count; ++i) {
            const double q = (static_cast<double>(i) + 0.5) /
                             static_cast<double>(count);
            gaps[i] = -std::log(1.0 - q) / rate;
        }
        for (std::size_t i = count - 1; i > 0; --i) {
            std::swap(lengths[i], lengths[rng.nextBounded(i + 1)]);
            std::swap(gaps[i], gaps[rng.nextBounded(i + 1)]);
        }
        double t = 0;
        for (std::size_t i = 0; i < count; ++i) {
            t += gaps[i];
            TokenRequest request;
            request.promptLen = lengths[i].first;
            request.decodeSteps = lengths[i].second;
            request.arrivalSeconds = t;
            request.ttftDeadlineSeconds = ttft;
            request.tokenDeadlineSeconds = tokenDeadline;
            trace_.push_back(request);
        }
    }

    void setup() override
    {
        reference_ = replay(nullptr);
        if (!accountingHolds(reference_)) {
            reference_.clear(); // no timed replay can verify against it
        }
    }

    Sample run(Tracer* tracer) override
    {
        Sample sample;
        const Clock::time_point start = Clock::now();
        std::vector<StreamResult> results = replay(tracer);
        sample.hostSeconds = since(start);

        if (corrupt_ && !results.empty()) {
            results[0].completionSeconds += 1e-9;
            corrupt_ = false;
        }
        sample.requests = static_cast<unsigned>(trace_.size());
        if (!accountingHolds(results)) {
            return sample; // nothing verified
        }
        for (std::size_t i = 0; i < trace_.size(); ++i) {
            const TokenRequest& request = trace_[i];
            const StreamResult& result = results[i];
            sample.verified += i < reference_.size() &&
                               sameStream(result, results[0].id,
                                          reference_[i], reference_[0].id);
            sample.tokens += request.promptLen + request.decodeSteps;
            sample.deadlineMet += result.tokensMet;
            sample.deadlineTotal += request.decodeSteps;
            sample.modeled.push_back(result.completionSeconds -
                                     result.arrivalSeconds);
        }
        return sample;
    }

    double speedupVsNaive() override
    {
        SessionOptions options;
        options.workers = 1;
        InferenceSession session(makeBackend("upmem"), options);
        std::vector<WorkloadSpec> specs;
        for (unsigned tier = 1; tier <= 8; tier *= 2) {
            specs.push_back(WorkloadSpec::decodeStep(model_, tier, 32));
        }
        for (const unsigned prompt : kPrompts) {
            specs.push_back(WorkloadSpec::prefill(model_, 1, prompt));
        }
        double naive = 0, localut = 0;
        for (const WorkloadSpec& spec : specs) {
            naive += session
                         .projectCost(session.compileUnsharded(
                             spec, quant_, DesignPoint::NaivePim))
                         .gemmSeconds;
            localut += session
                           .projectCost(session.compileUnsharded(
                               spec, quant_, DesignPoint::LoCaLut))
                           .gemmSeconds;
        }
        return naive / localut;
    }

    void layerMetrics(const Tracer& tracer, Metrics& out) override
    {
        InputGen gen(settings_.seed ^ 0x9e0be5);
        probeLayers({"upmem", model_, quant_, 8, 1}, gen, out);
        double tokens = 0;
        for (const TokenRequest& request : trace_) {
            tokens += request.promptLen + request.decodeSteps;
        }
        out["token_engine.run_us_per_token"].value =
            selfMedian(tracer, "token_engine.run") / tokens * 1e6;
        double tiers = 0, decodes = 0;
        for (const StepTrace& step : last_.steps) {
            tiers += step.decode ? step.tier : 0;
            decodes += step.decode;
        }
        out["token_engine.steps"].value =
            static_cast<double>(last_.steps.size());
        out["token_engine.decode_tier_mean"].value = tiers / decodes;
        out["residency.table_hit_ratio"].value = last_.residency.hitRate();
        out["residency.evictions"].value =
            static_cast<double>(last_.residency.evictions);
        out["residency.kv_spills"].value =
            static_cast<double>(last_.residency.kvSpills);
        out["residency.broadcast_modeled_s"].value =
            last_.residency.broadcastSeconds;
        double wait = 0, completed = 0;
        for (const LaneStats& lane : last_.telemetry.lanes) {
            wait += lane.queueDelay.sum();
            completed += static_cast<double>(lane.queueDelay.count());
        }
        out["scheduler.queue_wait_modeled_s"].value =
            completed > 0 ? wait / completed : 0;
        out["scheduler.admitted_share"].value =
            static_cast<double>(last_.telemetry.totalAdmitted()) /
            static_cast<double>(last_.telemetry.totalSubmitted());
    }

  private:
    /** Conversations per (prompt, decode) length pair: 6003 in all. */
    static constexpr std::size_t kPerPair = 667;
    static constexpr double kLoad = 2.0;
    static constexpr std::uint64_t kMramBudget = 200000;
    static constexpr unsigned kPrompts[3] = {8, 16, 32};
    static constexpr unsigned kDecodes[3] = {4, 8, 16};

    /** What the last replay left behind, for the traced run. */
    struct Last {
        std::vector<StepTrace> steps;
        ResidencyStats residency;
        TelemetrySnapshot telemetry;
    };

    /** Serves the whole trace on a fresh session. */
    std::vector<StreamResult> replay(Tracer* tracer)
    {
        SessionOptions options;
        options.workers = 1;
        options.residencyPolicy = ResidencyPolicy::CostAware;
        options.mramBudgetBytes = kMramBudget;
        std::unique_ptr<InferenceSession> session;
        std::unique_ptr<TokenEngine> engine;
        Telemetry telemetry;
        {
            Tracer::Scope span(tracer, "session.construct");
            session = std::make_unique<InferenceSession>(
                makeBackend("upmem"), options);
            TokenEngineOptions engineOptions;
            engineOptions.model = model_;
            engineOptions.quant = quant_;
            engine = std::make_unique<TokenEngine>(*session, engineOptions,
                                                   &telemetry);
        }
        {
            Tracer::Scope span(tracer, "token_engine.submit");
            for (const TokenRequest& request : trace_) {
                engine->submit(request);
            }
        }
        std::vector<StreamResult> results;
        {
            Tracer::Scope span(tracer, "token_engine.run");
            results = engine->run();
        }
        last_.steps = engine->stepTraces();
        last_.residency = session->residencyStats();
        last_.telemetry = telemetry.snapshot();
        return results;
    }

    /**
     * Emitted plus shed decode tokens equal the offered ones, and LUT
     * tables are broadcast only on a step that first touches its batch
     * shape on its rank, or after an eviction forced a re-broadcast.
     */
    bool accountingHolds(const std::vector<StreamResult>& results) const
    {
        if (results.size() != trace_.size()) {
            return false;
        }
        std::uint64_t offered = 0, emitted = 0, shed = 0;
        for (std::size_t i = 0; i < results.size(); ++i) {
            const unsigned steps = trace_[i].decodeSteps;
            const unsigned got = results[i].tokensEmitted();
            offered += steps;
            emitted += got;
            shed += steps - got;
            if (results[i].status == StreamStatus::Completed &&
                got != steps) {
                return false;
            }
        }
        if (emitted + shed != offered) {
            return false;
        }
        std::map<std::pair<unsigned, unsigned>, bool> touched;
        std::uint64_t broadcastSteps = 0, firstTouches = 0;
        for (const StepTrace& step : last_.steps) {
            const auto key = std::make_pair(step.rank,
                                            step.decode ? step.tier : 0);
            firstTouches += !touched[key];
            touched[key] = true;
            broadcastSteps += step.lutBroadcastSeconds > 0;
        }
        // Prefill steps share key (rank, 0) whatever their prompt
        // length, so each further prompt length may touch once more.
        return broadcastSteps <= firstTouches + (std::size(kPrompts) - 1) +
                                     last_.residency.rebroadcasts;
    }

    Settings settings_;
    TransformerConfig model_ = TransformerConfig::opt125m();
    QuantConfig quant_ = QuantConfig::preset("W4A4");
    std::vector<TokenRequest> trace_;
    std::vector<StreamResult> reference_;
    Last last_;
};

} // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string& name, const Settings& settings)
{
    if (name == "decode") {
        return std::make_unique<Decode>(settings);
    }
    if (name == "prefill_sharded") {
        return std::make_unique<PrefillSharded>(settings);
    }
    if (name == "conversation") {
        return std::make_unique<Conversation>(settings);
    }
    return nullptr;
}

} // namespace perfbench
