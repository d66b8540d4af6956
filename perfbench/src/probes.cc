#include "probes.h"

#include <functional>

#include "backend/backend.h"
#include "kernels/exec_engine.h"
#include "nn/workload.h"
#include "serving/scheduler.h"
#include "serving/token_engine.h"
#include "upmemsim/sim_backend.h"

using namespace localut;

namespace perfbench {

namespace {

constexpr DesignPoint kDesigns[] = {
    DesignPoint::NaivePim, DesignPoint::Ltc,  DesignPoint::OpLutDram,
    DesignPoint::OpLut,    DesignPoint::OpLc, DesignPoint::OpLcRc,
    DesignPoint::LoCaLut,
};

/** Median wall seconds of @p reps calls of @p fn. */
double
timeIt(unsigned reps, const std::function<void()>& fn)
{
    std::vector<double> samples;
    for (unsigned i = 0; i < reps; ++i) {
        const Clock::time_point start = Clock::now();
        fn();
        samples.push_back(since(start));
    }
    return median(samples);
}

/** Metric-name spelling of a design point ("naive_pim", "localut"...). */
const char*
designKey(DesignPoint design)
{
    switch (design) {
    case DesignPoint::NaivePim: return "naive_pim";
    case DesignPoint::Ltc: return "ltc";
    case DesignPoint::OpLutDram: return "op_lut_dram";
    case DesignPoint::OpLut: return "op_lut";
    case DesignPoint::OpLc: return "op_lc";
    case DesignPoint::OpLcRc: return "op_lc_rc";
    case DesignPoint::LoCaLut: return "localut";
    }
    return "unknown";
}

} // namespace

std::vector<RoleShape>
roleShapes(const TransformerConfig& model, std::size_t n)
{
    WorkloadSpec spec = WorkloadSpec::decodeStep(model, 1, 1);
    std::vector<RoleShape> out;
    for (const WorkloadGemm& gemm : workloadGemms(spec)) {
        out.push_back({gemm.role, gemm.m, gemm.k, n});
    }
    return out;
}

void
probeLayers(const ProbeInput& in, InputGen& gen, Metrics& out)
{
    const BackendPtr backend = makeBackend(in.backend);
    const auto us = [](double s) { return s * 1e6; };
    const auto ms = [](double s) { return s * 1e3; };

    std::vector<GemmProblem> problems;
    std::vector<std::string> roles;
    for (const RoleShape& shape : roleShapes(in.model, in.n)) {
        problems.push_back(gen.problem(shape.m, shape.k, shape.n, in.quant));
        roles.push_back(shape.role);
    }
    const GemmProblem& outProj = problems[1]; // hidden x hidden

    // backend: a plan from scratch, and charging a plan.
    std::vector<GemmPlan> plans;
    double planSeconds = 0, chargeSeconds = 0;
    for (const GemmProblem& problem : problems) {
        GemmPlan plan = backend->plan(problem, DesignPoint::LoCaLut);
        planSeconds += timeIt(5, [&] {
            plan = backend->plan(problem, DesignPoint::LoCaLut);
        });
        plans.push_back(plan);
        chargeSeconds +=
            timeIt(20, [&] { backend->chargeCosts(plans.back()); });
    }
    out["backend.plan_ms"] = {ms(planSeconds / problems.size()), "ms"};
    out["backend.charge_us"] = {us(chargeSeconds / problems.size()), "us"};

    // plan_cache: memo hits (plan and prepared operand).
    {
        PlanCache cache;
        double planHit = 0, preparedHit = 0;
        for (std::size_t i = 0; i < problems.size(); ++i) {
            const GemmPlan plan =
                cache.planFor(*backend, problems[i], DesignPoint::LoCaLut);
            cache.preparedFor(*backend, problems[i], plan);
            planHit += timeIt(20, [&] {
                cache.planFor(*backend, problems[i], DesignPoint::LoCaLut);
            });
            preparedHit += timeIt(5, [&] {
                cache.preparedFor(*backend, problems[i], plan);
            });
        }
        out["plan_cache.plan_hit_us"] = {us(planHit / problems.size()), "us"};
        out["plan_cache.prepared_hit_us"] = {
            us(preparedHit / problems.size()), "us"};
        const PlanCache::Stats stats = cache.stats();
        out["plan_cache.prepared_hit_ratio"] = {
            static_cast<double>(stats.preparedHits) /
                static_cast<double>(stats.preparedHits +
                                    stats.preparedMisses),
            "ratio"};
    }

    // exec + lut: preparation, table builds and kernels per role.
    {
        TilePool pool(in.hands);
        double prepare = 0, tables = 0, kernelNs = 0, macs = 0;
        std::vector<std::shared_ptr<PreparedGemm>> prepared;
        for (std::size_t i = 0; i < problems.size(); ++i) {
            prepare += timeIt(3, [&] { prepareGemm(problems[i], plans[i]); });
            tables += timeIt(3, [&] {
                prepareGemm(problems[i], plans[i], /*useTableCache=*/false);
            });
            prepared.push_back(prepareGemm(problems[i], plans[i]));
            ExecOptions options;
            options.prepared = prepared.back().get();
            options.tiles = in.hands > 1 ? &pool : nullptr;
            const double kernel = timeIt(5, [&] {
                backend->execute(problems[i], plans[i], options);
            });
            out["exec.kernel_ms." + roles[i]] = {ms(kernel), "ms"};
            kernelNs += kernel * 1e9;
            macs += static_cast<double>(problems[i].m() * problems[i].k() *
                                        problems[i].n());
        }
        out["exec.prepare_ms"] = {ms(prepare / problems.size()), "ms"};
        out["lut.table_build_ms"] = {ms(tables / problems.size()), "ms"};
        out["exec.macs_per_ns"] = {macs / kernelNs, "MAC/ns"};

        // Hand scaling on the hidden x hidden GEMM: 1 hand vs kMaxHands.
        TilePool wide(kMaxHands);
        ExecOptions one;
        one.prepared = prepared[1].get();
        ExecOptions many = one;
        many.tiles = &wide;
        const double t1 = timeIt(5, [&] {
            backend->execute(outProj, plans[1], one);
        });
        const double tn = timeIt(5, [&] {
            backend->execute(outProj, plans[1], many);
        });
        out["exec.hand_scaling"] = {t1 / tn, "x"};

        // Every design point on the hidden x hidden GEMM, at the
        // workload's hand count.
        for (const DesignPoint design : kDesigns) {
            const GemmPlan plan = backend->plan(outProj, design);
            const auto operand = prepareGemm(outProj, plan);
            ExecOptions options;
            options.prepared = operand.get();
            options.tiles = in.hands > 1 ? &pool : nullptr;
            out[std::string("exec.kernel_ms.") + designKey(design)] = {
                ms(timeIt(3, [&] {
                    backend->execute(outProj, plan, options);
                })),
                "ms"};
        }
    }

    // upmemsim: the first charge of a plan on a fresh simulator backend.
    {
        std::vector<double> samples;
        for (int i = 0; i < 3; ++i) {
            UpmemSimBackend sim;
            const GemmPlan plan = sim.plan(outProj, DesignPoint::LoCaLut);
            const Clock::time_point start = Clock::now();
            sim.simulated(plan);
            samples.push_back(since(start));
        }
        out["upmemsim.simulate_ms"] = {ms(median(samples)), "ms"};
    }

    // sharding: a 4-rank column-parallel cut of the hidden x hidden GEMM.
    {
        PlanCache cache;
        ShardSpec spec;
        spec.numRanks = kShardRanks;
        makeShardPlan(*backend, outProj, DesignPoint::LoCaLut, spec, {},
                      &cache);
        ShardPlan plan;
        out["sharding.plan_us"] = {
            us(timeIt(10, [&] {
                plan = makeShardPlan(*backend, outProj, DesignPoint::LoCaLut,
                                     spec, {}, &cache);
            })),
            "us"};
        std::vector<GemmProblem> slices(plan.ranksUsed());
        out["sharding.slice_us"] = {
            us(timeIt(5, [&] {
                for (unsigned s = 0; s < plan.ranksUsed(); ++s) {
                    slices[s] = shardProblem(outProj, plan, s);
                }
            })),
            "us"};
        std::vector<GemmResult> parts;
        for (unsigned s = 0; s < plan.ranksUsed(); ++s) {
            parts.push_back(backend->execute(slices[s], plan.shards[s].plan,
                                             /*computeValues=*/true));
        }
        std::vector<double> reduce;
        for (int i = 0; i < 5; ++i) {
            std::vector<GemmResult> copy = parts;
            const Clock::time_point start = Clock::now();
            reduceShardResults(*backend, plan, std::move(copy));
            reduce.push_back(since(start));
        }
        out["sharding.reduce_us"] = {us(median(reduce)), "us"};
        out["sharding.collective_modeled_s"] = {plan.collectiveSeconds,
                                                "model_s"};
    }

    // session: one GEMM submit + wait on a session cut like the
    // workload's, and its own share of it: the request minus the same
    // GEMM done by hand through the plan cache, the shard cut when the
    // workload shards, and Backend::execute.
    {
        double request = in.requestSeconds;
        if (request <= 0) {
            SessionOptions options;
            options.workers = in.hands;
            options.numRanks = in.ranks;
            InferenceSession session(backend, options);
            for (std::size_t i = 0; i < problems.size(); ++i) {
                session.wait(session.submit(problems[i],
                                            DesignPoint::LoCaLut,
                                            /*computeValues=*/true));
            }
            for (const GemmProblem& problem : problems) {
                std::vector<double> samples;
                for (int rep = 0; rep < 5; ++rep) {
                    GemmProblem copy = problem; // requests own operands
                    const Clock::time_point start = Clock::now();
                    session.wait(session.submit(std::move(copy),
                                                DesignPoint::LoCaLut,
                                                /*computeValues=*/true));
                    samples.push_back(since(start));
                }
                request += median(samples);
            }
            request /= static_cast<double>(problems.size());
        }

        PlanCache cache;
        TilePool pool(in.hands);
        ExecOptions exec;
        exec.tiles = in.hands > 1 ? &pool : nullptr;
        ShardSpec spec;
        spec.numRanks = in.ranks;
        double direct = 0;
        for (const GemmProblem& problem : problems) {
            const auto byHand = [&] {
                if (!spec.sharded()) {
                    const GemmPlan plan = cache.planFor(
                        *backend, problem, DesignPoint::LoCaLut);
                    const auto prepared =
                        cache.preparedFor(*backend, problem, plan);
                    ExecOptions options = exec;
                    options.prepared = prepared.get();
                    backend->execute(problem, plan, options);
                    return;
                }
                const ShardPlan plan = cache.shardPlanFor(
                    *backend, problem, DesignPoint::LoCaLut, spec);
                std::vector<GemmResult> parts;
                for (unsigned s = 0; s < plan.ranksUsed(); ++s) {
                    const GemmProblem slice = shardProblem(problem, plan, s);
                    const auto prepared = cache.preparedFor(
                        *backend, slice, plan.shards[s].plan);
                    ExecOptions options = exec;
                    options.prepared = prepared.get();
                    parts.push_back(backend->execute(
                        slice, plan.shards[s].plan, options));
                }
                reduceShardResults(*backend, plan, std::move(parts));
            };
            byHand(); // fills the cache, as the session's warm state is
            direct += timeIt(5, byHand);
        }
        direct /= static_cast<double>(problems.size());
        out["session.request_us"] = {us(request), "us"};
        out["session.self_us"] = {us(request - direct), "us"};
    }

    // scheduler: the role GEMMs arrive together on one rank.
    {
        SessionOptions options;
        options.workers = 1;
        InferenceSession session(backend, options);
        RequestScheduler scheduler(session);
        std::vector<double> submit;
        std::vector<std::uint64_t> ids;
        for (int round = 0; round < 4; ++round) {
            for (const GemmProblem& problem : problems) {
                ServingRequest request = ServingRequest::gemm(
                    problem, DesignPoint::LoCaLut,
                    DeadlineClass::Interactive,
                    std::numeric_limits<double>::infinity(),
                    /*computeValues=*/false);
                const Clock::time_point start = Clock::now();
                ids.push_back(scheduler.submit(std::move(request)).id);
                submit.push_back(since(start));
            }
        }
        double wait = 0, admitted = 0;
        for (const std::uint64_t id : ids) {
            const ServingResult result = scheduler.wait(id);
            admitted += result.decision.admitted();
            wait += result.sample.queueDelaySeconds();
        }
        out["scheduler.submit_us"] = {us(median(submit)), "us"};
        out["scheduler.queue_wait_modeled_s"] = {
            wait / static_cast<double>(ids.size()), "model_s"};
        out["scheduler.admitted_share"] = {
            admitted / static_cast<double>(ids.size()), "ratio"};
    }

    // residency: table-set and KV acquires on a one-rank ledger.
    {
        ResidencyManager residency(backend, 1, 0, ResidencyPolicy::CostAware);
        for (std::size_t i = 0; i < plans.size(); ++i) {
            residency.acquire(plans[i], roles[i]);
        }
        double acquire = 0;
        for (std::size_t i = 0; i < plans.size(); ++i) {
            acquire += timeIt(
                20, [&] { residency.acquire(plans[i], roles[i]); });
        }
        std::uint64_t context = 16;
        const double kv = timeIt(50, [&] {
            residency.acquireKv(1, 0, in.model.layers,
                                in.model.kvBytesPerTokenPerLayer(16),
                                ++context);
        });
        const ResidencyStats stats = residency.stats();
        out["residency.acquire_us"] = {us(acquire / plans.size()), "us"};
        out["residency.kv_acquire_us"] = {us(kv), "us"};
        out["residency.table_hit_ratio"] = {stats.hitRate(), "ratio"};
        out["residency.evictions"] = {static_cast<double>(stats.evictions),
                                      "count"};
        out["residency.kv_spills"] = {static_cast<double>(stats.kvSpills),
                                      "count"};
        out["residency.broadcast_modeled_s"] = {stats.broadcastSeconds,
                                                "model_s"};
    }

    // nn: compiling a decode step (warm plans) and projecting its cost.
    {
        SessionOptions options;
        options.workers = 1;
        InferenceSession session(backend, options);
        const WorkloadSpec spec = WorkloadSpec::decodeStep(
            in.model, static_cast<unsigned>(in.n), 32);
        InferenceSession::CompiledWorkload compiled =
            session.compileUnsharded(spec, in.quant, DesignPoint::LoCaLut);
        out["nn.compile_us"] = {
            us(timeIt(20, [&] {
                compiled = session.compileUnsharded(spec, in.quant,
                                                    DesignPoint::LoCaLut);
            })),
            "us"};
        out["nn.project_us"] = {
            us(timeIt(20, [&] { session.projectCost(compiled); })), "us"};
    }

    // token_engine: a short conversation trace, timing only.
    {
        SessionOptions options;
        options.workers = 1;
        options.residencyPolicy = ResidencyPolicy::CostAware;
        InferenceSession session(backend, options);
        TokenEngineOptions engineOptions;
        engineOptions.model = in.model;
        engineOptions.quant = in.quant;
        TokenEngine engine(session, engineOptions);
        double tokens = 0, arrival = 0;
        for (unsigned i = 0; i < 64; ++i) {
            TokenRequest request;
            request.promptLen = 8u << (i % 3);
            request.decodeSteps = 4u << (i % 3);
            request.arrivalSeconds = arrival += 0.01;
            tokens += request.promptLen + request.decodeSteps;
            engine.submit(request);
        }
        const Clock::time_point start = Clock::now();
        engine.run();
        const double seconds = since(start);
        double tiers = 0, decodes = 0;
        const std::vector<StepTrace> steps = engine.stepTraces();
        for (const StepTrace& step : steps) {
            tiers += step.decode ? step.tier : 0;
            decodes += step.decode;
        }
        out["token_engine.run_us_per_token"] = {us(seconds / tokens), "us"};
        out["token_engine.steps"] = {static_cast<double>(steps.size()),
                                     "count"};
        out["token_engine.decode_tier_mean"] = {tiers / decodes, "streams"};
    }
}

} // namespace perfbench
