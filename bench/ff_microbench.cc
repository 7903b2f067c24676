/**
 * @file
 * Fast-forward dispatch microbenchmark: the cost of *how* an
 * instruction is dispatched, isolated from what it computes. Two
 * variants run the same workload (164.gzip) through FunctionalFast
 * with BBV tracking off:
 *
 *  - interp-step: the unbatched step() interpreter (the differential
 *    oracle; decode on every instruction).
 *  - interp-fastop: the pre-decoded FastOp batch loop (the
 *    fast-forward path).
 *
 * Two more run FunctionalWarm, the mode PGSS and SMARTS fast-forward
 * in, with hashed BBV on (PGSS's configuration): the step() warm loop
 * against the FastOp loop with warm hooks. Their work adds cache and
 * predictor warming, identical across the pair.
 *
 * Since architectural work is identical within each table, the ops/s
 * deltas are pure dispatch cost. Best-of-3 per variant: the numbers
 * feed perf-smoke CI, where run-to-run noise on shared runners is
 * large.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/support.hh"
#include "sim/engine.hh"
#include "util/table.hh"
#include "workload/suite.hh"

using namespace pgss;

namespace
{

/** One dispatch variant: the fast-path switch and a mode. */
struct Variant
{
    const char *name;
    bool fast_path;
    sim::SimMode mode = sim::SimMode::FunctionalFast;
    bool hashed_bbv = false;
};

/** Best-of-3 ops/sec for @p v over @p total_ops per repetition. */
double
measure(const workload::BuiltWorkload &built, const Variant &v,
        std::uint64_t total_ops)
{
    const sim::EngineConfig config = bench::benchConfig();

    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
        const auto make = [&] {
            auto e = std::make_unique<sim::SimulationEngine>(
                built.program, config);
            e->setFastPathEnabled(v.fast_path);
            e->setHashedBbvEnabled(v.hashed_bbv);
            return e;
        };
        auto engine = make();
        // Warm-up: the decode-table build happens here, so the timed
        // region sees steady-state dispatch only.
        engine->run(200'000, v.mode);

        const auto t0 = std::chrono::steady_clock::now();
        std::uint64_t ops = 0;
        while (ops < total_ops) {
            if (engine->halted())
                engine = make();
            ops += engine->run(100'000, v.mode).ops;
        }
        const double secs =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count();
        best = std::max(best, static_cast<double>(ops) / secs);
    }
    return best;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::init(argc, argv, "ff_microbench");
    bench::printHeader(
        "Fast-forward dispatch microbenchmark",
        "Same workload, same work within each table, different "
        "dispatch mechanisms; deltas are pure dispatch cost. "
        "Best-of-3.");

    // Fixed small gzip build (as fig13's rate harness uses): the
    // comparison needs identical work per variant, not suite scale.
    const workload::BuiltWorkload built =
        workload::buildWorkload("164.gzip", 0.05);

    // Enough ops that dispatch dominates timer noise, small enough
    // for a CI smoke step (4 variants x 3 reps x 4M ops).
    const std::uint64_t total_ops = 4'000'000;

    const std::vector<Variant> fast = {
        {"interp-step", false},
        {"interp-fastop", true},
    };
    const std::vector<Variant> warm = {
        {"warm-step", false, sim::SimMode::FunctionalWarm, true},
        {"warm-fastop", true, sim::SimMode::FunctionalWarm, true},
    };

    const auto table = [&](const char *title,
                           const std::vector<Variant> &variants) {
        std::vector<double> rate;
        for (const Variant &v : variants)
            rate.push_back(measure(built, v, total_ops));
        util::Table t(title);
        t.setHeader({"variant", "ops/s", "host MIPS",
                     std::string("vs ") + variants[0].name});
        for (std::size_t i = 0; i < variants.size(); ++i)
            t.addRow({variants[i].name, util::Table::fmtSci(rate[i], 3),
                      util::Table::fmt(rate[i] / 1e6, 1),
                      util::Table::fmt(rate[i] / rate[0], 2) + "x"});
        t.print(std::cout);
    };
    table("dispatch cost (164.gzip, FunctionalFast, no BBV)", fast);
    std::printf("\n");
    table("warm dispatch cost (164.gzip, FunctionalWarm, hashed BBV)",
          warm);

    std::printf("\nexpected shape: fastop removes per-instruction "
                "decode and the DynInst\nrecord. In warm mode cache "
                "and predictor warming, the same in both rows,\n"
                "bound the gain.\n");
    bench::finish();
    return 0;
}
