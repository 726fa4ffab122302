// Bench-regression gate: diffs two BENCH_*.json artifacts and fails
// loudly when any shared metric regressed by more than the threshold
// (default 20%), so perf decay breaks CI instead of accumulating
// silently run over run.
//
// Understands both artifact shapes the CI produces:
//   * google-benchmark --benchmark_out JSON: every entry in "benchmarks"
//     is one metric — items_per_second when present (higher is better),
//     real_time otherwise (lower is better). With repetitions, only the
//     "median" aggregate counts, named by its run_name, so it matches
//     the plain row of a baseline run without repetitions; the other
//     aggregates (mean, stddev, cv) and the repetitions' own rows are
//     skipped;
//   * the flat bench_serve_throughput object: every top-level
//     "*_per_second" number (higher is better).
//
// Metrics present in only one file are reported but never fail the gate
// (benches get added and removed); a regression is only ever judged on a
// metric both runs produced.
//
//   bench_diff <baseline.json> <current.json> [--max-regression 0.20]
//   bench_diff --self-test
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace {

// ---- minimal JSON subset parser (objects/arrays/strings/numbers) ----

struct json_value {
    enum class kind { null, boolean, number, string, array, object };
    kind type = kind::null;
    bool boolean = false;
    double number = 0.0;
    std::string text;
    std::vector<json_value> array;
    std::vector<std::pair<std::string, json_value>> members;

    [[nodiscard]] const json_value* find(const std::string& key) const {
        for (const auto& [name, value] : members) {
            if (name == key) {
                return &value;
            }
        }
        return nullptr;
    }
};

class json_parser {
public:
    explicit json_parser(const std::string& text) : text_(text) {}

    json_value parse() {
        json_value value = parse_value();
        skip_ws();
        if (pos_ != text_.size()) {
            fail("trailing characters after JSON document");
        }
        return value;
    }

private:
    [[noreturn]] void fail(const std::string& what) const {
        throw std::runtime_error("JSON parse error at offset " +
                                 std::to_string(pos_) + ": " + what);
    }

    void skip_ws() {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    char peek() {
        skip_ws();
        if (pos_ >= text_.size()) {
            fail("unexpected end of input");
        }
        return text_[pos_];
    }

    void expect(char c) {
        if (peek() != c) {
            fail(std::string("expected '") + c + "'");
        }
        ++pos_;
    }

    bool consume_literal(const std::string& literal) {
        if (text_.compare(pos_, literal.size(), literal) == 0) {
            pos_ += literal.size();
            return true;
        }
        return false;
    }

    json_value parse_value() {
        switch (peek()) {
        case '{':
            return parse_object();
        case '[':
            return parse_array();
        case '"': {
            json_value value;
            value.type = json_value::kind::string;
            value.text = parse_string();
            return value;
        }
        case 't':
        case 'f': {
            json_value value;
            value.type = json_value::kind::boolean;
            value.boolean = text_[pos_] == 't';
            if (!consume_literal(value.boolean ? "true" : "false")) {
                fail("malformed boolean literal");
            }
            return value;
        }
        case 'n': {
            if (!consume_literal("null")) {
                fail("malformed null literal");
            }
            return json_value{};
        }
        default:
            return parse_number();
        }
    }

    json_value parse_object() {
        expect('{');
        json_value value;
        value.type = json_value::kind::object;
        if (peek() == '}') {
            ++pos_;
            return value;
        }
        while (true) {
            if (peek() != '"') {
                fail("expected object key");
            }
            std::string key = parse_string();
            expect(':');
            value.members.emplace_back(std::move(key), parse_value());
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return value;
        }
    }

    json_value parse_array() {
        expect('[');
        json_value value;
        value.type = json_value::kind::array;
        if (peek() == ']') {
            ++pos_;
            return value;
        }
        while (true) {
            value.array.push_back(parse_value());
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return value;
        }
    }

    std::string parse_string() {
        expect('"');
        std::string out;
        while (pos_ < text_.size() && text_[pos_] != '"') {
            char c = text_[pos_++];
            if (c == '\\') {
                if (pos_ >= text_.size()) {
                    fail("unterminated escape");
                }
                const char escape = text_[pos_++];
                switch (escape) {
                case 'n':
                    c = '\n';
                    break;
                case 't':
                    c = '\t';
                    break;
                case 'u':
                    // Benchmark names are ASCII; keep escapes opaque.
                    out += "\\u";
                    continue;
                default:
                    c = escape;
                    break;
                }
            }
            out += c;
        }
        if (pos_ >= text_.size()) {
            fail("unterminated string");
        }
        ++pos_; // closing quote
        return out;
    }

    json_value parse_number() {
        skip_ws();
        const std::size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
                text_[pos_] == '-' || text_[pos_] == '+' ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E')) {
            ++pos_;
        }
        if (start == pos_) {
            fail("expected a number");
        }
        json_value value;
        value.type = json_value::kind::number;
        value.number = std::stod(text_.substr(start, pos_ - start));
        return value;
    }

    const std::string& text_;
    std::size_t pos_ = 0;
};

// ---- metric extraction ----

struct metric {
    std::string name;
    double value = 0.0;
    bool higher_is_better = true;
};

bool ends_with(const std::string& text, const std::string& suffix) {
    return text.size() >= suffix.size() &&
           text.compare(text.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
}

std::vector<metric> extract_metrics(const json_value& root) {
    std::vector<metric> metrics;
    if (const json_value* benches = root.find("benchmarks");
        benches != nullptr && benches->type == json_value::kind::array) {
        for (const json_value& entry : benches->array) {
            const json_value* name = entry.find("name");
            // With repetitions a benchmark counts once, by its median,
            // which one slow repetition cannot move.
            if (const json_value* aggregate = entry.find("aggregate_name");
                aggregate != nullptr) {
                if (aggregate->type != json_value::kind::string ||
                    aggregate->text != "median") {
                    continue;
                }
                name = entry.find("run_name");
            } else if (const json_value* reps = entry.find("repetitions");
                       reps != nullptr &&
                       reps->type == json_value::kind::number &&
                       reps->number > 1.0) {
                continue;
            }
            if (name == nullptr ||
                name->type != json_value::kind::string) {
                continue;
            }
            if (const json_value* items = entry.find("items_per_second");
                items != nullptr &&
                items->type == json_value::kind::number) {
                metrics.push_back(
                    {name->text + " [items/s]", items->number, true});
                continue;
            }
            if (const json_value* time = entry.find("real_time");
                time != nullptr &&
                time->type == json_value::kind::number) {
                std::string unit = "time";
                if (const json_value* u = entry.find("time_unit");
                    u != nullptr && u->type == json_value::kind::string) {
                    unit = u->text;
                }
                metrics.push_back(
                    {name->text + " [" + unit + "]", time->number, false});
            }
        }
        return metrics;
    }
    // Flat shape (bench_serve_throughput): throughput keys only — the
    // latency block is noisy at CI concurrency and the throughput number
    // is the contract.
    std::string prefix = "bench";
    if (const json_value* bench_name = root.find("bench");
        bench_name != nullptr &&
        bench_name->type == json_value::kind::string) {
        prefix = bench_name->text;
    }
    for (const auto& [key, value] : root.members) {
        if (value.type == json_value::kind::number &&
            ends_with(key, "_per_second")) {
            metrics.push_back({prefix + "." + key, value.number, true});
        }
    }
    // Benches that gate a latency publish it under "gated_latency_us":
    // every number inside is lower-is-better. Other nested blocks (e.g.
    // the ungated "latency_ms"/"latency_us" diagnostics) stay out of the
    // gate on purpose.
    if (const json_value* gated = root.find("gated_latency_us");
        gated != nullptr && gated->type == json_value::kind::object) {
        for (const auto& [key, value] : gated->members) {
            if (value.type == json_value::kind::number) {
                metrics.push_back({prefix + ".gated_latency_us." + key,
                                   value.number, false});
            }
        }
    }
    return metrics;
}

const metric* find_metric(const std::vector<metric>& metrics,
                          const std::string& name) {
    for (const metric& m : metrics) {
        if (m.name == name) {
            return &m;
        }
    }
    return nullptr;
}

// ---- diffing ----

/// Compares current against baseline; returns the number of metrics
/// regressed past `max_regression` (0.20 == 20% worse). Prints one line
/// per shared metric.
int diff_metrics(const std::vector<metric>& baseline,
                 const std::vector<metric>& current, double max_regression,
                 bool verbose) {
    int regressions = 0;
    std::size_t shared = 0;
    for (const metric& base : baseline) {
        const metric* cur = find_metric(current, base.name);
        if (cur == nullptr) {
            std::fprintf(stderr, "bench_diff: note: '%s' absent from the "
                                 "current run\n",
                         base.name.c_str());
            continue;
        }
        ++shared;
        if (base.value <= 0.0) {
            continue; // degenerate baseline; nothing to judge
        }
        const double regression =
            base.higher_is_better
                ? (base.value - cur->value) / base.value
                : (cur->value - base.value) / base.value;
        if (regression > max_regression) {
            ++regressions;
            std::fprintf(stderr,
                         "bench_diff: REGRESSION %s: %.6g -> %.6g "
                         "(%.1f%% worse, threshold %.0f%%)\n",
                         base.name.c_str(), base.value, cur->value,
                         regression * 100.0, max_regression * 100.0);
        } else if (verbose) {
            std::fprintf(stdout, "bench_diff: ok %s: %.6g -> %.6g "
                                 "(%+.1f%%)\n",
                         base.name.c_str(), base.value, cur->value,
                         -regression * 100.0);
        }
    }
    for (const metric& cur : current) {
        if (find_metric(baseline, cur.name) == nullptr) {
            std::fprintf(stderr, "bench_diff: note: '%s' is new (no "
                                 "baseline)\n",
                         cur.name.c_str());
        }
    }
    if (shared == 0) {
        std::fprintf(stderr, "bench_diff: WARNING: no shared metrics — "
                             "the gate checked nothing\n");
    }
    return regressions;
}

std::vector<metric> metrics_from_text(const std::string& text) {
    json_parser parser(text);
    return extract_metrics(parser.parse());
}

std::vector<metric> metrics_from_file(const std::string& path) {
    std::ifstream in(path);
    if (!in) {
        throw std::runtime_error("cannot open " + path);
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return metrics_from_text(buffer.str());
}

// ---- self test: the gate must fail on an injected regression ----

int self_test() {
    const std::string baseline = R"({"benchmarks":[
        {"name":"bm_batch/7","items_per_second":1000.0},
        {"name":"bm_suffix","real_time":50.0,"time_unit":"ns"}]})";
    const std::string ok = R"({"benchmarks":[
        {"name":"bm_batch/7","items_per_second":950.0},
        {"name":"bm_suffix","real_time":55.0,"time_unit":"ns"}]})";
    const std::string regressed = R"({"benchmarks":[
        {"name":"bm_batch/7","items_per_second":600.0},
        {"name":"bm_suffix","real_time":55.0,"time_unit":"ns"}]})";
    const std::string serve_base =
        R"({"bench":"serve_throughput","samples_per_second":100.0,)"
        R"("latency_ms":{"mean":1.0,"p50":1.0,"p99":2.0}})";
    const std::string serve_slow =
        R"({"bench":"serve_throughput","samples_per_second":70.0,)"
        R"("latency_ms":{"mean":2.0,"p50":2.0,"p99":4.0}})";
    const std::string stream_base =
        R"({"bench":"stream_latency","samples_per_second":1000.0,)"
        R"("gated_latency_us":{"p50":900.0},)"
        R"("latency_us":{"mean":950.0,"p99":2000.0}})";
    const std::string stream_drift =
        R"({"bench":"stream_latency","samples_per_second":980.0,)"
        R"("gated_latency_us":{"p50":950.0},)"
        R"("latency_us":{"mean":990.0,"p99":5000.0}})";
    const std::string stream_slow =
        R"({"bench":"stream_latency","samples_per_second":990.0,)"
        R"("gated_latency_us":{"p50":1900.0},)"
        R"("latency_us":{"mean":1950.0,"p99":4000.0}})";
    // --benchmark_repetitions=5: a repetition's own row, then the
    // aggregates. Only the median may count.
    const auto repeated = [](const std::string& median,
                             const std::string& mean) {
        const auto row = [](const std::string& fields,
                            const std::string& items) {
            return R"({"run_name":"bm_batch/7","repetitions":5,)" + fields +
                   R"(,"items_per_second":)" + items + "}";
        };
        return R"({"benchmarks":[)" +
               row(R"("name":"bm_batch/7","run_type":"iteration")", mean) +
               "," +
               row(R"("name":"bm_batch/7_mean","run_type":"aggregate",)"
                   R"("aggregate_name":"mean")",
                   mean) +
               "," +
               row(R"("name":"bm_batch/7_median","run_type":"aggregate",)"
                   R"("aggregate_name":"median")",
                   median) +
               "," +
               row(R"("name":"bm_batch/7_stddev","run_type":"aggregate",)"
                   R"("aggregate_name":"stddev")",
                   "1.0") +
               "]}";
    };

    int failures = 0;
    const auto expect = [&failures](bool condition, const char* what) {
        if (!condition) {
            ++failures;
            std::fprintf(stderr, "bench_diff --self-test FAILED: %s\n",
                         what);
        }
    };
    expect(diff_metrics(metrics_from_text(baseline), metrics_from_text(ok),
                        0.20, false) == 0,
           "a 5-10%% drift must pass the 20%% gate");
    expect(diff_metrics(metrics_from_text(baseline),
                        metrics_from_text(regressed), 0.20, false) == 1,
           "an injected 40%% throughput regression must fail the gate");
    expect(diff_metrics(metrics_from_text(serve_base),
                        metrics_from_text(serve_slow), 0.20, false) == 1,
           "a 30%% serve-throughput regression must fail the gate");
    expect(diff_metrics(metrics_from_text(serve_base),
                        metrics_from_text(serve_base), 0.20, false) == 0,
           "identical serve artifacts must pass");
    expect(diff_metrics(metrics_from_text(stream_base),
                        metrics_from_text(stream_drift), 0.20, false) == 0,
           "small latency drift (and an ungated p99 spike) must pass");
    expect(diff_metrics(metrics_from_text(stream_base),
                        metrics_from_text(stream_slow), 0.20, false) == 1,
           "a doubled gated p50 latency must fail the gate");
    expect(diff_metrics(metrics_from_text(baseline),
                        metrics_from_text(repeated("600.0", "990.0")), 0.20,
                        false) == 1,
           "a 40%% median regression must fail against a plain baseline");
    expect(diff_metrics(metrics_from_text(repeated("1000.0", "1000.0")),
                        metrics_from_text(repeated("990.0", "600.0")), 0.20,
                        false) == 0,
           "a regressed mean with a steady median must pass");
    expect(metrics_from_text(repeated("1000.0", "1000.0")).size() == 1,
           "only the median may count, not a repetition or another "
           "aggregate");
    if (failures == 0) {
        std::printf("bench_diff --self-test: all checks passed (the gate "
                    "fails on injected regressions)\n");
    }
    return failures == 0 ? 0 : 1;
}

} // namespace

int main(int argc, char** argv) {
    std::vector<std::string> args(argv + 1, argv + argc);
    double max_regression = 0.20;
    std::vector<std::string> files;
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--self-test") {
            return self_test();
        }
        if (args[i] == "--max-regression") {
            if (i + 1 >= args.size()) {
                std::fprintf(stderr,
                             "bench_diff: --max-regression needs a value\n");
                return 2;
            }
            max_regression = std::stod(args[++i]);
            continue;
        }
        files.push_back(args[i]);
    }
    if (files.size() != 2) {
        std::fprintf(stderr,
                     "usage: bench_diff <baseline.json> <current.json> "
                     "[--max-regression 0.20]\n"
                     "       bench_diff --self-test\n");
        return 2;
    }
    try {
        const int regressions =
            diff_metrics(metrics_from_file(files[0]),
                         metrics_from_file(files[1]), max_regression, true);
        if (regressions > 0) {
            std::fprintf(stderr,
                         "bench_diff: %d metric(s) regressed past %.0f%% "
                         "(baseline %s)\n",
                         regressions, max_regression * 100.0,
                         files[0].c_str());
            return 1;
        }
        std::printf("bench_diff: no regression past %.0f%% vs %s\n",
                    max_regression * 100.0, files[0].c_str());
        return 0;
    } catch (const std::exception& error) {
        std::fprintf(stderr, "bench_diff: %s\n", error.what());
        return 2;
    }
}
