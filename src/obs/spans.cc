#include "obs/spans.hh"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <ostream>

#include "obs/json.hh"
#include "util/thread_pool.hh"

namespace pgss::obs
{

namespace
{

std::uint64_t
steadyNowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * Hot-path global: one relaxed load per PGSS_SPAN when profiling is
 * off. The unique_ptr keeps ownership; the atomic is what ScopedSpan
 * reads.
 */
std::unique_ptr<SpanProfiler> g_profiler_storage;
std::atomic<SpanProfiler *> g_profiler{nullptr};

/** Distinguishes profiler instances even at reused addresses. */
std::atomic<std::uint64_t> g_instance_counter{0};

SpanSite g_engine_mode_sites[] = {
    {"engine.functional_fast", SpanCat::Ff},
    {"engine.functional_warm", SpanCat::Ff},
    {"engine.detailed_warm", SpanCat::Detailed},
    {"engine.detailed_measure", SpanCat::Detailed},
};

} // anonymous namespace

const char *
spanCatName(SpanCat cat)
{
    switch (cat) {
      case SpanCat::Ff:
        return "ff";
      case SpanCat::Detailed:
        return "detailed";
      case SpanCat::Checkpoint:
        return "checkpoint";
      case SpanCat::Cluster:
        return "cluster";
      case SpanCat::Bench:
        return "bench";
      case SpanCat::Io:
        return "io";
      case SpanCat::Decode:
        return "decode";
      case SpanCat::Other:
        return "other";
    }
    return "other";
}

// ---- Span sites ----------------------------------------------------

SpanSite &
engineModeSite(int mode)
{
    return g_engine_mode_sites[mode];
}

std::vector<PerfRow>
perfRows()
{
    std::vector<PerfRow> rows;
    for (const SpanSite &site : g_engine_mode_sites) {
        PerfRow r;
        // "engine.<mode>" reports as "mode.<mode>".
        r.key = std::string("mode.") +
                (std::strchr(site.name(), '.') + 1);
        r.calls = site.calls();
        r.ops = site.ops();
        r.seconds = static_cast<double>(site.ns()) / 1e9;
        r.mips = r.seconds > 0.0
                     ? static_cast<double>(r.ops) / r.seconds / 1e6
                     : 0.0;
        rows.push_back(std::move(r));
    }
    return rows;
}

// ---- SpanBuffer ----------------------------------------------------

SpanBuffer::SpanBuffer(std::uint32_t tid, std::string thread_name,
                       std::size_t capacity)
    : tid_(tid), thread_name_(std::move(thread_name))
{
    ring_.resize(capacity < 16 ? 16 : capacity);
}

void
SpanBuffer::push(const SpanRecord &rec)
{
    ring_[head_] = rec;
    head_ = (head_ + 1) % ring_.size();
    if (count_ < ring_.size())
        ++count_;
    ++recorded_;
}

std::vector<SpanRecord>
SpanBuffer::records() const
{
    std::vector<SpanRecord> out;
    out.reserve(count_);
    const std::size_t first =
        (head_ + ring_.size() - count_) % ring_.size();
    for (std::size_t i = 0; i < count_; ++i)
        out.push_back(ring_[(first + i) % ring_.size()]);
    return out;
}

// ---- SpanProfiler --------------------------------------------------

namespace
{

/** Cache of this thread's buffer, keyed by profiler instance id. */
struct ThreadCache
{
    std::uint64_t instance = 0;
    SpanBuffer *buffer = nullptr;
};
thread_local ThreadCache t_cache;

} // anonymous namespace

SpanProfiler::SpanProfiler(const SpanProfilerConfig &config)
    : config_(config)
{
    instance_id_ = 1 + g_instance_counter.fetch_add(1);
    epoch_ns_ = config_.now_ns ? config_.now_ns() : steadyNowNs();
    if (config_.calibrate && !config_.now_ns)
        calibrate();
}

std::uint64_t
SpanProfiler::nowNs() const
{
    const std::uint64_t raw =
        config_.now_ns ? config_.now_ns() : steadyNowNs();
    return raw >= epoch_ns_ ? raw - epoch_ns_ : 0;
}

double
SpanProfiler::wallSeconds() const
{
    return static_cast<double>(nowNs()) / 1e9;
}

SpanBuffer &
SpanProfiler::threadBuffer()
{
    if (t_cache.instance == instance_id_)
        return *t_cache.buffer;
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::make_unique<SpanBuffer>(
        static_cast<std::uint32_t>(buffers_.size()),
        util::currentThreadName(), config_.ring_capacity));
    t_cache.instance = instance_id_;
    t_cache.buffer = buffers_.back().get();
    return *t_cache.buffer;
}

std::vector<const SpanBuffer *>
SpanProfiler::buffers() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<const SpanBuffer *> out;
    out.reserve(buffers_.size());
    for (const auto &b : buffers_)
        out.push_back(b.get());
    return out;
}

std::uint64_t
SpanProfiler::totalRecorded() const
{
    std::uint64_t n = 0;
    for (const SpanBuffer *b : buffers())
        n += b->recorded();
    return n;
}

std::uint64_t
SpanProfiler::totalDropped() const
{
    std::uint64_t n = 0;
    for (const SpanBuffer *b : buffers())
        n += b->dropped();
    return n;
}

void
SpanProfiler::calibrate()
{
    // Time open/close pairs against a scratch buffer and site: two
    // clock reads, the stack round-trip, the site totals and the ring
    // write — the same work a real span does. Reported, not
    // subtracted: flame views need to know how much of a short span
    // is instrumentation.
    constexpr int kIters = 4096;
    SpanBuffer scratch(~0u, "calibration", 512);
    SpanSite site("calibration", SpanCat::Other);
    const std::uint64_t t0 = steadyNowNs();
    for (int i = 0; i < kIters; ++i) {
        scratch.stack.push_back({"calibration", 0});
        SpanRecord rec;
        rec.name = "calibration";
        rec.start_ns = nowNs();
        rec.dur_ns = nowNs() - rec.start_ns;
        rec.self_ns = rec.dur_ns;
        site.add(0, rec.dur_ns);
        scratch.stack.pop_back();
        scratch.push(rec);
    }
    overhead_ns_ =
        static_cast<double>(steadyNowNs() - t0) / kIters;
}

namespace
{

/** Flat aggregation bucket (per name, and per parent->child edge). */
struct SpanAgg
{
    SpanCat cat = SpanCat::Other;
    std::uint64_t calls = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
    std::uint64_t ops = 0;
};

double
toSeconds(std::uint64_t ns)
{
    return static_cast<double>(ns) / 1e9;
}

} // anonymous namespace

void
SpanProfiler::writeTraceEventJson(std::ostream &os) const
{
    JsonWriter w;
    w.beginObject();
    w.field("displayTimeUnit", "ms");
    w.beginArray("traceEvents");
    const std::vector<const SpanBuffer *> bufs = buffers();
    for (const SpanBuffer *b : bufs) {
        // Named thread tracks: Perfetto shows these instead of raw
        // tids.
        w.beginObject();
        w.field("ph", "M");
        w.field("pid", std::uint64_t{1});
        w.field("tid", std::uint64_t{b->tid()});
        w.field("name", "thread_name");
        w.beginObject("args");
        w.field("name", b->threadName());
        w.endObject();
        w.endObject();
    }
    for (const SpanBuffer *b : bufs) {
        const std::vector<SpanRecord> recs = b->records();
        for (const SpanRecord &r : recs) {
            w.beginObject();
            w.field("name", r.name);
            w.field("cat", spanCatName(r.cat));
            w.field("ph", "X");
            w.field("pid", std::uint64_t{1});
            w.field("tid", std::uint64_t{b->tid()});
            w.field("ts", static_cast<double>(r.start_ns) / 1e3);
            w.field("dur", static_cast<double>(r.dur_ns) / 1e3);
            w.beginObject("args");
            if (r.ops > 0) {
                w.field("ops", r.ops);
                if (r.dur_ns > 0)
                    w.field("mips", static_cast<double>(r.ops) *
                                        1e3 /
                                        static_cast<double>(
                                            r.dur_ns));
            }
            w.field("self_us",
                    static_cast<double>(r.self_ns) / 1e3);
            w.endObject();
            w.endObject();
        }
        if (b->wrapped()) {
            // Truncation marker: the track is incomplete left of the
            // oldest surviving record.
            w.beginObject();
            w.field("name", "ring-wrapped");
            w.field("ph", "i");
            w.field("s", "t");
            w.field("pid", std::uint64_t{1});
            w.field("tid", std::uint64_t{b->tid()});
            w.field("ts",
                    recs.empty()
                        ? 0.0
                        : static_cast<double>(recs.front().start_ns) /
                              1e3);
            w.beginObject("args");
            w.field("dropped", b->dropped());
            w.endObject();
            w.endObject();
        }
    }
    w.endArray();
    w.endObject();
    os << w.str() << "\n";
}

void
SpanProfiler::dumpProfileJson(JsonWriter &w) const
{
    // std::map keys both tables so emission order is deterministic
    // (name order); renderers re-sort by self time for display.
    std::map<std::string, SpanAgg> flat;
    std::map<std::pair<std::string, std::string>, SpanAgg> tree;
    std::uint64_t cat_self_ns[span_cat_count] = {};
    std::uint64_t cat_ops[span_cat_count] = {};

    const std::vector<const SpanBuffer *> bufs = buffers();
    for (const SpanBuffer *b : bufs) {
        for (const SpanRecord &r : b->records()) {
            SpanAgg &f = flat[r.name];
            f.cat = r.cat;
            ++f.calls;
            f.total_ns += r.dur_ns;
            f.self_ns += r.self_ns;
            f.ops += r.ops;
            SpanAgg &t = tree[{r.parent ? r.parent : "", r.name}];
            t.cat = r.cat;
            ++t.calls;
            t.total_ns += r.dur_ns;
            t.self_ns += r.self_ns;
            cat_self_ns[static_cast<int>(r.cat)] += r.self_ns;
            cat_ops[static_cast<int>(r.cat)] += r.ops;
        }
    }

    w.beginObject("profile");
    w.field("schema_version", std::uint64_t{schema_version});
    w.field("wall_seconds", wallSeconds());
    w.field("overhead_ns_per_span", overhead_ns_);
    w.field("spans_recorded", totalRecorded());
    w.field("spans_dropped", totalDropped());
    w.field("truncated", totalDropped() > 0);
    // Overhead attributable to the recorded spans, for the <=2%
    // instrumentation budget check (DESIGN.md section 11).
    w.field("overhead_seconds",
            overhead_ns_ * static_cast<double>(totalRecorded()) /
                1e9);

    w.beginArray("threads");
    for (const SpanBuffer *b : bufs) {
        w.beginObject();
        w.field("tid", std::uint64_t{b->tid()});
        w.field("name", b->threadName());
        w.field("recorded", b->recorded());
        w.field("dropped", b->dropped());
        w.field("wrapped", b->wrapped());
        w.endObject();
    }
    w.endArray();

    w.beginObject("categories");
    for (int c = 0; c <= static_cast<int>(SpanCat::Other); ++c) {
        w.beginObject(spanCatName(static_cast<SpanCat>(c)));
        w.field("self_seconds", toSeconds(cat_self_ns[c]));
        w.field("ops", cat_ops[c]);
        w.endObject();
    }
    w.endObject();

    w.beginObject("flat");
    for (const auto &[name, agg] : flat) {
        w.beginObject(name);
        w.field("cat", spanCatName(agg.cat));
        w.field("calls", agg.calls);
        w.field("total_seconds", toSeconds(agg.total_ns));
        w.field("self_seconds", toSeconds(agg.self_ns));
        w.field("ops", agg.ops);
        w.field("mips", agg.total_ns > 0
                            ? static_cast<double>(agg.ops) * 1e3 /
                                  static_cast<double>(agg.total_ns)
                            : 0.0);
        w.endObject();
    }
    w.endObject();

    w.beginArray("tree");
    for (const auto &[edge, agg] : tree) {
        w.beginObject();
        w.field("parent", edge.first);
        w.field("name", edge.second);
        w.field("calls", agg.calls);
        w.field("total_seconds", toSeconds(agg.total_ns));
        w.field("self_seconds", toSeconds(agg.self_ns));
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

// ---- Global install ------------------------------------------------

SpanProfiler *
spanProfiler()
{
    return g_profiler.load(std::memory_order_relaxed);
}

void
setSpanProfiler(std::unique_ptr<SpanProfiler> profiler)
{
    g_profiler.store(nullptr, std::memory_order_relaxed);
    g_profiler_storage = std::move(profiler);
    g_profiler.store(g_profiler_storage.get(),
                     std::memory_order_release);
}

// ---- ScopedSpan ----------------------------------------------------

ScopedSpan::ScopedSpan(SpanSite &site)
    : site_(site), profiler_(spanProfiler())
{
    if (!profiler_) {
        start_ns_ = steadyNowNs();
        return;
    }
    buffer_ = &profiler_->threadBuffer();
    if (!buffer_->stack.empty())
        parent_ = buffer_->stack.back().name;
    buffer_->stack.push_back({site.name(), 0});
    // Clock read last so registration cost lands outside the span.
    start_ns_ = profiler_->nowNs();
}

ScopedSpan::~ScopedSpan()
{
    const std::uint64_t end =
        profiler_ ? profiler_->nowNs() : steadyNowNs();
    const std::uint64_t dur = end >= start_ns_ ? end - start_ns_ : 0;
    site_.add(ops_, dur);
    if (!profiler_)
        return;
    SpanRecord rec;
    rec.name = site_.name();
    rec.parent = parent_;
    rec.start_ns = start_ns_;
    rec.dur_ns = dur;
    const SpanBuffer::Frame frame = buffer_->stack.back();
    buffer_->stack.pop_back();
    rec.self_ns = rec.dur_ns >= frame.child_ns
                      ? rec.dur_ns - frame.child_ns
                      : 0;
    rec.depth = static_cast<std::uint32_t>(buffer_->stack.size());
    rec.ops = ops_;
    rec.cat = site_.cat();
    if (!buffer_->stack.empty())
        buffer_->stack.back().child_ns += rec.dur_ns;
    buffer_->push(rec);
}

} // namespace pgss::obs
