/**
 * @file
 * On-disk cache of interval profiles. A full detailed run of a
 * workload takes seconds-to-minutes; every bench binary needs the
 * same ground truth, so profiles are built once and keyed by workload
 * identity (name, code hash, data size, interval size, machine
 * config). Delete the cache directory (default ./pgss_profile_cache,
 * override with PGSS_PROFILE_CACHE) to force rebuilds.
 */

#ifndef PGSS_ANALYSIS_PROFILE_CACHE_HH
#define PGSS_ANALYSIS_PROFILE_CACHE_HH

#include <string>

#include "analysis/interval_profile.hh"
#include "util/serialize.hh"

namespace pgss::analysis
{

/** Loads profiles from disk or builds and stores them. */
class ProfileCache
{
  public:
    /** @param dir cache directory (created on first store). */
    explicit ProfileCache(std::string dir = "");

    /**
     * Return the profile for @p program, building it (and caching the
     * result) when absent or stale.
     */
    IntervalProfile loadOrBuild(const isa::Program &program,
                                const sim::EngineConfig &config = {},
                                std::uint64_t interval_ops = 100'000);

    /** Cache file path used for @p program. */
    std::string pathFor(const isa::Program &program,
                        const sim::EngineConfig &config,
                        std::uint64_t interval_ops) const;

  private:
    std::string dir_;
};

/** Serialize a profile (exposed for tests). */
std::vector<std::uint8_t> serializeProfile(const IntervalProfile &p);

/** Deserialize; @p ok reports malformed input. */
IntervalProfile
deserializeProfile(std::vector<std::uint8_t> data, bool &ok);

/**
 * Deserialize with failure classification: Stale for a previous
 * format version (silent rebuild), Corrupt for damage (the cache file
 * gets quarantined by loadOrBuild). Takes @p data by value: move a
 * loaded file in to decode it without a copy.
 */
IntervalProfile
deserializeProfile(std::vector<std::uint8_t> data, util::ReadError &err);

} // namespace pgss::analysis

#endif // PGSS_ANALYSIS_PROFILE_CACHE_HH
