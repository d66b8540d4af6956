/**
 * @file
 * perfbench: runs one workload for a fixed wall-time budget and prints
 * its metrics as the last line of standard output.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--commit <id>] [--spans <path>]
 *
 * The seed is the only input knob: it determines every weight,
 * activation, checked column and arrival.  --trace 0 reports the
 * end-to-end metrics; --trace 1 runs half the budget untraced and half
 * with spans around every call into a layer, then reports the
 * per-layer metrics and the tracing overhead.  perfbench/run.py builds
 * this binary and is the documented entry point.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "probes.h"
#include "workload.h"

using namespace perfbench;

namespace {

/** Set-up rounds per run; setup_s is the median of their set-ups. */
constexpr int kRounds = 5;

struct Args {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
    std::string commit = "unknown";
    std::string spans;
};

bool
parse(int argc, char** argv, Args& args)
{
    bool haveSeed = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        char* end = nullptr;
        if (key == "--workload") {
            args.workload = value;
        } else if (key == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
            haveSeed = end != value.c_str() && *end == '\0';
        } else if (key == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
        } else if (key == "--trace") {
            if (value != "0" && value != "1") {
                return false;
            }
            args.trace = value == "1";
        } else if (key == "--commit") {
            args.commit = value;
        } else if (key == "--spans") {
            args.spans = value;
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && haveSeed && args.seconds > 0 &&
           std::isfinite(args.seconds) && !args.workload.empty();
}

/** Serves samples into @p samples until @p seconds have passed. */
void
serve(Workload& workload, double seconds, Tracer* tracer,
      std::uint64_t& requestId, std::vector<Sample>& samples)
{
    const Clock::time_point start = Clock::now();
    do {
        if (workload.workers() <= 1) {
            rotateCpu(static_cast<unsigned>(requestId));
        }
        ++requestId;
        if (tracer != nullptr) {
            tracer->beginRequest(requestId);
        }
        Tracer::Scope span(tracer, "request");
        samples.push_back(workload.run(tracer));
    } while (since(start) < seconds);
}

std::vector<double>
hostPerRequest(const std::vector<Sample>& samples)
{
    std::vector<double> out;
    for (const Sample& sample : samples) {
        out.push_back(sample.hostSeconds / sample.requests);
    }
    return out;
}

void
printJsonString(const std::string& s)
{
    std::putchar('"');
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            std::putchar('\\');
        }
        std::putchar(static_cast<unsigned char>(c) < 0x20 ? ' ' : c);
    }
    std::putchar('"');
}

} // namespace

int
main(int argc, char** argv)
{
    Args args;
    if (!parse(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload <name> --seed <n> "
                     "--seconds <s> --trace <0|1> [--commit <id>] "
                     "[--spans <path>]\n");
        return 2;
    }
    const unsigned nproc = cpuCount();
    Settings settings;
    settings.seed = args.seed;
    settings.hands = std::clamp(nproc - 1, 1u, kMaxHands);
    const std::unique_ptr<Workload> workload =
        makeWorkload(args.workload, settings);
    if (!workload) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     args.workload.c_str());
        return 2;
    }

    // Inputs and references: untimed.  The resident set they leave is
    // recorded, since peak_rss_mb includes it.
    workload->prepare();
    const double prepareRssMb = peakRssMb();

    // Rounds: each sets up a fresh warm state (timed as one setup_s
    // sample) and then serves its share of the timed phase, so a run
    // averages over several memory layouts and CPUs rather than over
    // the one it happened to start with.  The checker self-test (one
    // flipped output value must fail the check) follows the first
    // set-up and is not counted.
    Tracer tracer;
    std::uint64_t requestId = 0;
    std::vector<double> setups;
    std::vector<Sample> plain, traced;
    bool selfTest = false;
    const double share = args.seconds / kRounds / (args.trace ? 2 : 1);
    for (int round = 0; round < kRounds; ++round) {
        if (workload->workers() <= 1) {
            rotateCpu(static_cast<unsigned>(round));
        }
        const Clock::time_point start = Clock::now();
        workload->setup();
        setups.push_back(since(start));
        if (round == 0) {
            workload->corruptNext();
            const Sample flipped = workload->run(nullptr);
            selfTest = flipped.verified < flipped.requests;
        }
        serve(*workload, share, nullptr, requestId, plain);
        if (args.trace) {
            serve(*workload, share, &tracer, requestId, traced);
        }
    }

    std::uint64_t attempted = 0, verified = 0, refused = 0;
    bool modeledExact = true;
    for (const auto* phase : {&plain, &traced}) {
        for (const Sample& sample : *phase) {
            attempted += sample.requests;
            verified += sample.verified;
            refused += sample.refused;
            modeledExact = modeledExact &&
                           sample.modeled == plain.front().modeled;
        }
    }

    double hostSeconds = 0, tokens = 0, met = 0, offered = 0;
    for (const Sample& sample : plain) {
        hostSeconds += sample.hostSeconds;
        tokens += sample.tokens;
        met += sample.deadlineMet;
        offered += sample.deadlineTotal;
    }
    // Every sample repeats the same modeled values (checked above), so
    // their percentiles come from one sample's requests: pooling the
    // copies would only make the tail depend on how many samples fit.
    const std::vector<double>& modeled = plain.front().modeled;
    const std::vector<double> host = hostPerRequest(plain);
    double hostTailPct = 0, modeledTailPct = 0;
    const double hostTail = tail(host, hostTailPct);
    const double modeledTail = tail(modeled, modeledTailPct);

    Metrics metrics;
    unpinCpu();
    if (args.trace) {
        workload->layerMetrics(tracer, metrics);
        metrics["trace.overhead_s"] = {
            median(hostPerRequest(traced)) - median(host), "s"};
        if (!args.spans.empty() && !tracer.write(args.spans)) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         args.spans.c_str());
        }
    } else {
        metrics["setup_s"] = {median(setups), "s"};
        metrics["host_request_p50_s"] = {median(host), "s"};
        metrics["host_request_tail_s"] = {hostTail, "s"};
        metrics["host_tokens_per_s"] = {tokens / hostSeconds, "tokens/s"};
        metrics["peak_rss_mb"] = {peakRssMb(), "MB"};
        metrics["verified_share"] = {
            static_cast<double>(verified) / static_cast<double>(attempted),
            "ratio"};
        metrics["modeled_request_p50_s"] = {median(modeled), "model_s"};
        metrics["modeled_request_tail_s"] = {modeledTail, "model_s"};
        metrics["modeled_deadline_met_share"] = {met / offered, "ratio"};
        metrics["modeled_speedup_vs_naive"] = {workload->speedupVsNaive(),
                                               "x"};
    }
    bool finite = true;
    for (const auto& [name, metric] : metrics) {
        finite = finite && std::isfinite(metric.value);
    }
    // Shed work is a failed request but not a wrong output: it counts
    // against verified_share and `failed`, not against `correct`.
    const bool correct = verified + refused == attempted && selfTest &&
                         modeledExact && finite;

    // Run metadata, one JSON line ahead of the result.
    std::printf("{\"meta\": {\"workload\": ");
    printJsonString(args.workload);
    std::printf(", \"describe\": ");
    printJsonString(workload->describe());
    std::printf(", \"seed\": %llu, \"seconds\": %.17g, \"trace\": %d, "
                "\"nproc\": %u, \"workers\": %u, \"compiler\": ",
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0, nproc, workload->workers());
#if defined(__clang__)
    printJsonString("clang " __clang_version__);
#elif defined(__GNUC__)
    printJsonString("gcc " __VERSION__);
#else
    printJsonString("unknown");
#endif
    std::printf(", \"build_type\": ");
    printJsonString(PERFBENCH_BUILD_TYPE);
    std::printf(", \"commit\": ");
    printJsonString(args.commit);
    std::printf(", \"setup_samples_s\": [");
    for (std::size_t i = 0; i < setups.size(); ++i) {
        std::printf("%s%.17g", i ? ", " : "", setups[i]);
    }
    std::printf("], \"host_samples_s\": [");
    for (std::size_t i = 0; i < host.size(); ++i) {
        std::printf("%s%.6g", i ? ", " : "", host[i]);
    }
    std::printf("], \"samples\": %zu, \"traced_samples\": %zu, "
                "\"host_tail_percentile\": %.17g, "
                "\"modeled_samples\": %zu, "
                "\"modeled_tail_percentile\": %.17g, "
                "\"prepare_rss_mb\": %.17g, \"refused\": %llu, "
                "\"checker_self_test\": %s, \"modeled_bit_exact\": %s}}\n",
                plain.size(), traced.size(), hostTailPct, modeled.size(),
                modeledTailPct, prepareRssMb,
                static_cast<unsigned long long>(refused),
                selfTest ? "true" : "false", modeledExact ? "true" : "false");

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(attempted - verified));
    bool first = true;
    for (const auto& [name, metric] : metrics) {
        std::printf("%s", first ? "" : ", ");
        first = false;
        printJsonString(name);
        std::printf(": {\"value\": %.17g, \"unit\": ",
                    std::isfinite(metric.value) ? metric.value : 0.0);
        printJsonString(metric.unit);
        std::printf("}");
    }
    std::printf("}}\n");
    return 0;
}
