/**
 * @file
 * Run-progress registry: the live, per-job view of a run that the
 * telemetry endpoints (/status, /metrics) and `pgss_top` render while
 * the process is still working — complementing the post-mortem
 * aggregates of the stats registry. A *job* is one unit of harness
 * work (one bench suite entry, one controller run); the bench harness
 * opens one per entry and the engine/controller hot paths update the
 * current thread's job through relaxed atomics:
 *
 *  - instructions retired (engine.run(), once per chunk — never per
 *    instruction) and the expected total, for progress and ETA;
 *  - detailed samples taken, the current phase id, phases discovered,
 *    and the CI relative half-width of the last-sampled phase
 *    (pgss_controller, once per period);
 *  - a heartbeat timestamp refreshed by every update, from which the
 *    watchdog flags jobs that stopped making progress (a stalled
 *    worker, a wedged engine) without any extra thread.
 *
 * Cost when nothing reads: one thread-local pointer load plus a few
 * relaxed stores per engine chunk. When no job is open on the calling
 * thread (currentJob() == nullptr, the default) the hot paths skip
 * everything, so non-bench users pay one predictable branch.
 *
 * Snapshots are lock-free reads of the atomic fields (each field is
 * individually coherent; the set is not one instant — fine for
 * monitoring). Job creation/lookup takes the registry mutex; slots
 * are stable pointers for the registry's lifetime.
 */

#ifndef PGSS_OBS_PROGRESS_HH
#define PGSS_OBS_PROGRESS_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace pgss::obs
{

/** Monotonic wall-clock seconds (steady clock): heartbeat time base. */
double wallSeconds();

/** Lifecycle of one job slot. */
enum class JobState : std::uint8_t
{
    Running,
    Done,
};

/**
 * One job's live counters. Writers use the update methods (relaxed
 * atomics + heartbeat); readers go through ProgressRegistry::
 * snapshot(). Identity fields are written once at begin().
 */
class JobHandle
{
  public:
    /** Add @p n retired instructions (engine.run() chunk hook). */
    void addOps(std::uint64_t n);

    /** Record a credited detailed sample and the phase's CI. */
    void addSample(double ci_rel);

    /** Record the period's phase classification. */
    void setPhase(std::uint32_t phase_id, std::uint64_t n_phases);

    /** Set/estimate the job's total instruction budget (0 unknown). */
    void setExpectedOps(std::uint64_t n);

    /** Refresh the watchdog heartbeat without other progress. */
    void heartbeat();

    const std::string &name() const { return name_; }
    std::uint64_t index() const { return index_; }

  private:
    friend class ProgressRegistry;

    std::string name_;        ///< entry name ("181.mcf", ...)
    std::uint64_t index_ = 0; ///< creation order, stable row id

    std::atomic<std::uint64_t> ops_{0};
    std::atomic<std::uint64_t> expected_ops_{0};
    std::atomic<std::uint64_t> samples_{0};
    std::atomic<std::uint32_t> phase_{0};
    std::atomic<std::uint32_t> phases_{0};
    std::atomic<double> ci_rel_{0.0};
    std::atomic<double> start_seconds_{0.0};
    std::atomic<double> end_seconds_{0.0};
    std::atomic<double> heartbeat_seconds_{0.0};
    std::atomic<std::uint8_t> state_{
        static_cast<std::uint8_t>(JobState::Running)};
};

/** One job's counters at a moment, plus derived monitoring values. */
struct JobSnapshot
{
    std::uint64_t index = 0;
    std::string name;
    JobState state = JobState::Running;

    std::uint64_t ops = 0;
    std::uint64_t expected_ops = 0;
    std::uint64_t samples = 0;
    std::uint32_t phase = 0;
    std::uint32_t phases = 0;
    double ci_rel = 0.0;

    double elapsed_seconds = 0.0;   ///< begin -> now (or -> end)
    double heartbeat_age = 0.0;     ///< now - last update
    double mips = 0.0;              ///< ops / elapsed / 1e6
    double eta_seconds = -1.0;      ///< -1 when expected_ops unknown
    bool stalled = false;           ///< watchdog verdict
};

/** Whole-registry snapshot for /status and /metrics. */
struct ProgressSnapshot
{
    std::vector<JobSnapshot> jobs; ///< creation order
    std::uint64_t total_ops = 0;
    std::uint64_t total_samples = 0;
    std::uint64_t running = 0;
    std::uint64_t done = 0;
    std::uint64_t stalled = 0;

    /** Age of the most recent heartbeat across running jobs
     * (0 when none are running). */
    double heartbeat_age = 0.0;
};

/** The process-wide job table. */
class ProgressRegistry
{
  public:
    /**
     * Open a job slot. The returned handle stays valid for the
     * registry's lifetime (slots are never reclaimed; a run's job
     * count is the suite size times a few harness passes).
     */
    JobHandle *begin(const std::string &name,
                     std::uint64_t expected_ops = 0);

    /** Mark @p job finished. Idempotent. */
    void end(JobHandle *job);

    /**
     * Read every slot. @p stall_seconds is the watchdog threshold: a
     * running job whose heartbeat is older is flagged stalled. @p now
     * defaults to the current wallSeconds(); tests pass an explicit
     * time to exercise the watchdog without sleeping.
     */
    ProgressSnapshot snapshot(double stall_seconds = 30.0,
                              double now = -1.0) const;

    /** Jobs opened so far. */
    std::size_t jobCount() const;

  private:
    mutable std::mutex mutex_;
    std::deque<std::unique_ptr<JobHandle>> jobs_;
};

/** The process-wide registry the telemetry endpoints read. */
ProgressRegistry &progress();

/**
 * The job the calling thread is working on (nullptr outside harness
 * work — the hot-path default). Set by the bench harness around each
 * entry body; engine/controller hot paths consult it.
 */
JobHandle *currentJob();
void setCurrentJob(JobHandle *job);

/** RAII: open a job, bind it to this thread, end + unbind on exit. */
class ScopedJob
{
  public:
    ScopedJob(const std::string &name, std::uint64_t expected_ops = 0);
    ~ScopedJob();

    ScopedJob(const ScopedJob &) = delete;
    ScopedJob &operator=(const ScopedJob &) = delete;

    JobHandle *handle() const { return job_; }

  private:
    JobHandle *job_;
    JobHandle *prev_;
};

} // namespace pgss::obs

#endif // PGSS_OBS_PROGRESS_HH
