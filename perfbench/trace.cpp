#include "trace.hpp"

#include <cstdio>
#include <cstring>

#include "obs/registry.hpp"

namespace perfbench {

size_t delta_index(const char* name) {
    for (size_t i = 0; i < kCounters.size(); ++i)
        if (std::strcmp(kCounters[i], name) == 0) return i;
    for (size_t i = 0; i < kHistogramSums.size(); ++i)
        if (std::strcmp(kHistogramSums[i], name) == 0) return kCounters.size() + i;
    snim::raise("perfbench: '%s' is not a recorded counter", name);
}

Recorder::Recorder() : t0_(Clock::now()) {}

double Recorder::now() const {
    return std::chrono::duration<double>(Clock::now() - t0_).count();
}

void Recorder::begin_pass(bool traced) {
    ++pass_;
    traced_ = traced;
    snim::obs::set_enabled(traced);
}

void Recorder::end_pass() {
    snim::obs::set_enabled(false);
    traced_ = false;
}

std::array<double, kDeltaCount> Recorder::read_deltas(bool with_histograms) const {
    std::array<double, kDeltaCount> v{};
    for (size_t i = 0; i < kCounters.size(); ++i)
        v[i] = static_cast<double>(snim::obs::counter_value(kCounters[i]));
    if (with_histograms)
        for (size_t i = 0; i < kHistogramSums.size(); ++i)
            if (auto s = snim::obs::value_stats(kHistogramSums[i]))
                v[kCounters.size() + i] = s->sum;
    return v;
}

int Recorder::open(std::string name, int point, bool call) {
    Span s;
    s.name = std::move(name);
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.point = point;
    s.pass = pass_;
    s.call = call;
    const int idx = static_cast<int>(spans_.size());
    spans_.push_back(std::move(s));
    stack_.push_back(idx);
    opened_at_.push_back(traced_ && call ? read_deltas(point < 0)
                                         : std::array<double, kDeltaCount>{});
    // Read last, so the counter reads are not part of the call's time.
    spans_.back().start = now();
    return idx;
}

void Recorder::close(int idx) {
    const double end = now();
    Span& s = spans_[static_cast<size_t>(idx)];
    s.end = end;
    if (traced_ && s.call) {
        const auto after = read_deltas(s.point < 0);
        for (size_t i = 0; i < kDeltaCount; ++i) s.deltas[i] = after[i] - opened_at_.back()[i];
    }
    if (s.call) last_call_ = idx;
    stack_.pop_back();
    opened_at_.pop_back();
}

void Recorder::write_json(const std::string& path, const std::string& config) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) snim::raise("perfbench: cannot write spans to '%s'", path.c_str());
    std::vector<double> child_seconds(spans_.size(), 0.0);
    for (const auto& s : spans_)
        if (s.parent >= 0) child_seconds[static_cast<size_t>(s.parent)] += s.seconds();
    std::fprintf(f, "{\"config\": %s,\n\"spans\": [\n", config.c_str());
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::fprintf(f,
                     "  {\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, \"end\": %.9f, "
                     "\"self\": %.9f, \"parent\": %d, \"point\": %d, \"points\": %d, "
                     "\"pass\": %d, \"call\": %s, \"failed\": %s, \"deltas\": {",
                     i, s.name.c_str(), s.start, s.end, s.seconds() - child_seconds[i],
                     s.parent, s.point, s.points, s.pass, s.call ? "true" : "false",
                     s.failed ? "true" : "false");
        bool first = true;
        for (size_t k = 0; k < kDeltaCount; ++k) {
            if (s.deltas[k] == 0.0) continue;
            const char* name = k < kCounters.size() ? kCounters[k]
                                                    : kHistogramSums[k - kCounters.size()];
            std::fprintf(f, "%s\"%s\": %.17g", first ? "" : ", ", name, s.deltas[k]);
            first = false;
        }
        std::fprintf(f, "}}%s\n", i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    if (std::fclose(f) != 0) snim::raise("perfbench: cannot write spans to '%s'", path.c_str());
}

} // namespace perfbench
