#include "obs/progress.hh"

#include <chrono>

namespace pgss::obs
{

namespace
{

thread_local JobHandle *t_current_job = nullptr;

} // anonymous namespace

double
wallSeconds()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

void
JobHandle::addOps(std::uint64_t n)
{
    ops_.fetch_add(n, std::memory_order_relaxed);
    heartbeat();
}

void
JobHandle::addSample(double ci_rel)
{
    samples_.fetch_add(1, std::memory_order_relaxed);
    ci_rel_.store(ci_rel, std::memory_order_relaxed);
    heartbeat();
}

void
JobHandle::setPhase(std::uint32_t phase_id, std::uint64_t n_phases)
{
    phase_.store(phase_id, std::memory_order_relaxed);
    phases_.store(static_cast<std::uint32_t>(n_phases),
                  std::memory_order_relaxed);
    heartbeat();
}

void
JobHandle::setExpectedOps(std::uint64_t n)
{
    expected_ops_.store(n, std::memory_order_relaxed);
}

void
JobHandle::heartbeat()
{
    heartbeat_seconds_.store(wallSeconds(),
                             std::memory_order_relaxed);
}

JobHandle *
ProgressRegistry::begin(const std::string &name,
                        std::uint64_t expected_ops)
{
    std::lock_guard<std::mutex> lock(mutex_);
    jobs_.push_back(std::make_unique<JobHandle>());
    JobHandle *job = jobs_.back().get();
    job->name_ = name;
    job->index_ = jobs_.size() - 1;
    job->expected_ops_.store(expected_ops,
                             std::memory_order_relaxed);
    const double now = wallSeconds();
    job->start_seconds_.store(now, std::memory_order_relaxed);
    job->heartbeat_seconds_.store(now, std::memory_order_relaxed);
    return job;
}

void
ProgressRegistry::end(JobHandle *job)
{
    if (!job)
        return;
    job->end_seconds_.store(wallSeconds(),
                            std::memory_order_relaxed);
    job->state_.store(static_cast<std::uint8_t>(JobState::Done),
                      std::memory_order_release);
}

ProgressSnapshot
ProgressRegistry::snapshot(double stall_seconds, double now) const
{
    if (now < 0.0)
        now = wallSeconds();
    ProgressSnapshot out;
    std::lock_guard<std::mutex> lock(mutex_);
    out.jobs.reserve(jobs_.size());
    double newest_beat = -1.0;
    for (const auto &j : jobs_) {
        JobSnapshot s;
        s.index = j->index_;
        s.name = j->name_;
        s.state = static_cast<JobState>(
            j->state_.load(std::memory_order_acquire));
        s.ops = j->ops_.load(std::memory_order_relaxed);
        s.expected_ops =
            j->expected_ops_.load(std::memory_order_relaxed);
        s.samples = j->samples_.load(std::memory_order_relaxed);
        s.phase = j->phase_.load(std::memory_order_relaxed);
        s.phases = j->phases_.load(std::memory_order_relaxed);
        s.ci_rel = j->ci_rel_.load(std::memory_order_relaxed);

        const double start =
            j->start_seconds_.load(std::memory_order_relaxed);
        const double beat =
            j->heartbeat_seconds_.load(std::memory_order_relaxed);
        const double end = s.state == JobState::Done
                               ? j->end_seconds_.load(
                                     std::memory_order_relaxed)
                               : now;
        s.elapsed_seconds = end > start ? end - start : 0.0;
        s.heartbeat_age = now > beat ? now - beat : 0.0;
        s.mips = s.elapsed_seconds > 0.0
                     ? static_cast<double>(s.ops) /
                           s.elapsed_seconds / 1e6
                     : 0.0;
        if (s.state == JobState::Running && s.expected_ops > s.ops &&
            s.ops > 0 && s.elapsed_seconds > 0.0) {
            const double rate =
                static_cast<double>(s.ops) / s.elapsed_seconds;
            s.eta_seconds =
                static_cast<double>(s.expected_ops - s.ops) / rate;
        }
        s.stalled = s.state == JobState::Running &&
                    s.heartbeat_age > stall_seconds;

        out.total_ops += s.ops;
        out.total_samples += s.samples;
        if (s.state == JobState::Running) {
            ++out.running;
            newest_beat = beat > newest_beat ? beat : newest_beat;
        } else {
            ++out.done;
        }
        if (s.stalled)
            ++out.stalled;
        out.jobs.push_back(std::move(s));
    }
    if (newest_beat >= 0.0 && now > newest_beat)
        out.heartbeat_age = now - newest_beat;
    return out;
}

std::size_t
ProgressRegistry::jobCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return jobs_.size();
}

ProgressRegistry &
progress()
{
    static ProgressRegistry reg;
    return reg;
}

JobHandle *
currentJob()
{
    return t_current_job;
}

void
setCurrentJob(JobHandle *job)
{
    t_current_job = job;
}

ScopedJob::ScopedJob(const std::string &name,
                     std::uint64_t expected_ops)
    : job_(progress().begin(name, expected_ops)),
      prev_(currentJob())
{
    setCurrentJob(job_);
}

ScopedJob::~ScopedJob()
{
    progress().end(job_);
    setCurrentJob(prev_);
}

} // namespace pgss::obs
