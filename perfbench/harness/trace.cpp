#include "trace.h"

#include <algorithm>

#include "common.h"
#include "exec/registry.h"

namespace perfbench::trace {

namespace exec = quorum::exec;

void span_log::add(const span& s) {
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(s);
}

std::vector<span> span_log::take() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return std::move(spans_);
}

exec_totals summarise(const std::vector<span>& spans) {
    exec_totals totals;
    for (const span& s : spans) {
        ++totals.calls;
        totals.samples += s.samples;
        totals.sample_levels += s.samples * s.levels;
        totals.busy_ns += s.end_ns - s.start_ns;
    }
    return totals;
}

std::vector<std::pair<std::int64_t, std::int64_t>>
intervals(const std::vector<span>& spans) {
    std::vector<std::pair<std::int64_t, std::int64_t>> out;
    out.reserve(spans.size());
    for (const span& s : spans) {
        out.emplace_back(s.start_ns, s.end_ns);
    }
    std::sort(out.begin(), out.end());
    return out;
}

namespace {

class traced_session final : public exec::level_session {
public:
    traced_session(std::unique_ptr<exec::level_session> inner,
                   span_log& log)
        : inner_(std::move(inner)), log_(log) {}

    [[nodiscard]] std::span<const exec::program>
    family() const noexcept override {
        return inner_->family();
    }

    void run(std::span<const exec::sample> samples,
             std::span<double> out) override {
        const std::int64_t start = now_ns();
        inner_->run(samples, out);
        log_.add({start, now_ns(), samples.size(), inner_->family().size()});
    }

private:
    std::unique_ptr<exec::level_session> inner_;
    span_log& log_;
};

class traced_executor final : public exec::executor {
public:
    traced_executor(std::unique_ptr<exec::executor> inner, span_log& log)
        : inner_(std::move(inner)), log_(log) {}

    [[nodiscard]] std::string_view name() const noexcept override {
        return inner_->name();
    }
    [[nodiscard]] bool
    supports(exec::readout_kind kind) const noexcept override {
        return inner_->supports(kind);
    }
    [[nodiscard]] bool
    supports(exec::capability what) const noexcept override {
        return inner_->supports(what);
    }
    [[nodiscard]] double run(const quorum::qsim::circuit& c, int cbit,
                             quorum::util::rng* gen) const override {
        return inner_->run(c, cbit, gen);
    }
    void run_batch(const exec::program& prog,
                   std::span<const exec::sample> samples,
                   std::span<double> out) const override {
        const std::int64_t start = now_ns();
        inner_->run_batch(prog, samples, out);
        log_.add({start, now_ns(), samples.size(), 1});
    }
    void run_batch_levels(std::span<const exec::program> levels,
                          std::span<const exec::sample> samples,
                          std::span<double> out) const override {
        const std::int64_t start = now_ns();
        inner_->run_batch_levels(levels, samples, out);
        log_.add({start, now_ns(), samples.size(), levels.size()});
    }
    [[nodiscard]] std::unique_ptr<exec::level_session>
    make_level_session(std::vector<exec::program> family) const override {
        return std::make_unique<traced_session>(
            inner_->make_level_session(std::move(family)), log_);
    }

private:
    std::unique_ptr<exec::executor> inner_;
    span_log& log_;
};

} // namespace

void register_traced_backend(const std::string& name,
                             const std::string& inner, span_log& log) {
    exec::register_backend(
        name, [inner, &log](const exec::engine_config& config) {
            return std::make_unique<traced_executor>(
                exec::make_executor(inner, config), log);
        });
}

} // namespace perfbench::trace
