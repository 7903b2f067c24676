/**
 * @file
 * Minimal streaming JSON writer for the observability layer: stats
 * dumps, run reports, and Perfetto trace_event exports. Emits compact,
 * valid JSON with proper string escaping; non-finite doubles become
 * null so reports never contain bare NaN/Inf tokens. No parser —
 * consumers are external tooling (jq, python) and the golden-file
 * tests.
 */

#ifndef PGSS_OBS_JSON_HH
#define PGSS_OBS_JSON_HH

#include <cstdint>
#include <string>

namespace pgss::obs
{

/** Escape @p s for inclusion inside a JSON string literal. */
std::string jsonEscape(const std::string &s);

/**
 * Append-only JSON builder. The caller drives structure with
 * beginObject()/endObject() and beginArray()/endArray(); commas are
 * inserted automatically. Misnesting is a programming error and
 * panics.
 */
class JsonWriter
{
  public:
    JsonWriter();

    /** Open an object, either anonymous (array/root) or keyed. */
    void beginObject();
    void beginObject(const std::string &key);
    void endObject();

    /** Open an array, either anonymous (array/root) or keyed. */
    void beginArray();
    void beginArray(const std::string &key);
    void endArray();

    /** Keyed scalar members (object context). */
    void field(const std::string &key, const std::string &value);
    void field(const std::string &key, const char *value);
    void field(const std::string &key, double value);
    void field(const std::string &key, std::uint64_t value);
    void field(const std::string &key, std::int64_t value);
    void field(const std::string &key, bool value);

    /** Anonymous scalar elements (array context). */
    void value(const std::string &v);
    void value(double v);
    void value(std::uint64_t v);

    /** The document so far. Complete once nesting depth returns to 0. */
    const std::string &str() const { return out_; }

    /** True when every opened scope has been closed. */
    bool complete() const { return depth_ == 0 && started_; }

  private:
    void comma();
    void key(const std::string &k);
    void appendDouble(double v);

    std::string out_;
    int depth_ = 0;
    bool started_ = false;
    bool need_comma_ = false;
};

} // namespace pgss::obs

#endif // PGSS_OBS_JSON_HH
