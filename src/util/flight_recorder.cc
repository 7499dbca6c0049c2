#include "util/flight_recorder.h"

#include <algorithm>
#include <cstdio>

#include "util/logging.h"

namespace nasd::util {

namespace {

/** The always-installed default recorder (process lifetime). */
FlightRecorder &
defaultRecorder()
{
    static FlightRecorder recorder;
    return recorder;
}

FlightRecorder *g_current_recorder = nullptr;

/** Path the panic hook dumps to; static storage so the hook (a plain
 *  function pointer) can reach it. */
const char *g_crash_dump_path = nullptr;

void
crashDumpHook()
{
    if (g_crash_dump_path == nullptr)
        return;
    std::FILE *f = std::fopen(g_crash_dump_path, "w");
    if (f == nullptr)
        return; // dying anyway; do not mask the original panic
    const std::string json = flightRecorder().toJson();
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    NASD_INFORM("flight recorder: dumped journal to %s", g_crash_dump_path);
}

void
appendEventJson(std::string &out, const FlightEvent &e)
{
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"seq\": %llu, \"t_ns\": %llu, \"trace\": %llu, "
                  "\"kind\": \"%s\", \"a\": %llu, \"b\": %llu",
                  static_cast<unsigned long long>(e.seq),
                  static_cast<unsigned long long>(e.time_ns),
                  static_cast<unsigned long long>(e.trace_id),
                  frEventName(e.kind),
                  static_cast<unsigned long long>(e.a),
                  static_cast<unsigned long long>(e.b));
    out += buf;
    if (e.detail[0] != '\0') {
        out += ", \"detail\": \"";
        out += e.detail; // clamped ASCII labels; nothing to escape
        out += '"';
    }
    out += '}';
}

} // namespace

const char *
frEventName(FrEvent e)
{
    switch (e) {
      case FrEvent::kRpcTimeout:         return "rpc_timeout";
      case FrEvent::kRpcRetry:           return "rpc_retry";
      case FrEvent::kRpcLateReply:       return "rpc_late_reply";
      case FrEvent::kFaultPlanInstalled: return "fault_plan_installed";
      case FrEvent::kFaultPlanCleared:   return "fault_plan_cleared";
      case FrEvent::kFaultDrop:          return "fault_drop";
      case FrEvent::kFaultDuplicate:     return "fault_duplicate";
      case FrEvent::kFaultDelay:         return "fault_delay";
      case FrEvent::kPartition:          return "partition";
      case FrEvent::kHeal:               return "heal";
      case FrEvent::kDriveCrash:         return "drive_crash";
      case FrEvent::kDriveRestart:       return "drive_restart";
      case FrEvent::kDriveFailed:        return "drive_failed";
      case FrEvent::kDriveRecovered:     return "drive_recovered";
      case FrEvent::kDriveProbe:         return "drive_probe";
      case FrEvent::kCapMint:            return "cap_mint";
      case FrEvent::kCapRefresh:         return "cap_refresh";
      case FrEvent::kCapExpired:         return "cap_expired";
      case FrEvent::kVersionFence:       return "version_fence";
      case FrEvent::kMapRefresh:         return "map_refresh";
      case FrEvent::kRebuildStart:       return "rebuild_start";
      case FrEvent::kRebuildComplete:    return "rebuild_complete";
      case FrEvent::kRebuildAbort:       return "rebuild_abort";
      case FrEvent::kRowLockAcquire:     return "row_lock_acquire";
      case FrEvent::kRowLockRelease:     return "row_lock_release";
      case FrEvent::kDegradedRead:       return "degraded_read";
      case FrEvent::kDegradedWrite:      return "degraded_write";
      case FrEvent::kWriteThrough:       return "write_through";
      case FrEvent::kMarkDegraded:       return "mark_degraded";
      case FrEvent::kPhaseBegin:         return "phase_begin";
      case FrEvent::kPhaseEnd:           return "phase_end";
      case FrEvent::kClientOp:           return "client_op";
      case FrEvent::kDriveSlowdown:      return "drive_slowdown";
      case FrEvent::kStragglerSuspect:   return "straggler_suspect";
    }
    return "?";
}

void
FlightJournal::record(std::uint64_t time_ns, FrEvent kind,
                      std::uint64_t trace_id, std::uint64_t a,
                      std::uint64_t b, std::string_view detail)
{
    if (ring_.size() < capacity_)
        ring_.emplace_back(); // next_ == size() until the ring wraps
    FlightEvent &e = ring_[next_];
    e.seq = owner_.nextSeq();
    e.time_ns = time_ns;
    e.trace_id = trace_id;
    e.a = a;
    e.b = b;
    e.kind = kind;
    const std::size_t n = std::min(detail.size(), FlightEvent::kDetailCap);
    std::memcpy(e.detail, detail.data() == nullptr ? "" : detail.data(), n);
    e.detail[n] = '\0';
    next_ = (next_ + 1) % capacity_;
    ++recorded_;
}

void
TailExemplars::add(double value, std::uint64_t trace_id, std::uint64_t seq)
{
    ++count_;
    if (used_ < kKeep) {
        keep_[used_++] = Exemplar{value, trace_id, seq};
        return;
    }
    // Replace the smallest retained sample, but only on a strict
    // improvement: ties keep the earlier sample (deterministic).
    std::size_t min_i = 0;
    for (std::size_t i = 1; i < kKeep; ++i) {
        if (keep_[i].value < keep_[min_i].value ||
            (keep_[i].value == keep_[min_i].value &&
             keep_[i].seq < keep_[min_i].seq))
            min_i = i;
    }
    if (value > keep_[min_i].value)
        keep_[min_i] = Exemplar{value, trace_id, seq};
}

std::vector<TailExemplars::Exemplar>
TailExemplars::sorted() const
{
    std::vector<Exemplar> out(keep_.begin(), keep_.begin() + used_);
    std::sort(out.begin(), out.end(),
              [](const Exemplar &x, const Exemplar &y) {
                  if (x.value != y.value)
                      return x.value > y.value;
                  return x.seq < y.seq;
              });
    return out;
}

const TailExemplars::Exemplar &
TailExemplars::max() const
{
    NASD_ASSERT(used_ > 0, "TailExemplars::max on empty reservoir");
    std::size_t max_i = 0;
    for (std::size_t i = 1; i < used_; ++i) {
        if (keep_[i].value > keep_[max_i].value ||
            (keep_[i].value == keep_[max_i].value &&
             keep_[i].seq < keep_[max_i].seq))
            max_i = i;
    }
    return keep_[max_i];
}

double
TailExemplars::threshold() const
{
    NASD_ASSERT(used_ > 0, "TailExemplars::threshold on empty reservoir");
    double t = keep_[0].value;
    for (std::size_t i = 1; i < used_; ++i)
        t = std::min(t, keep_[i].value);
    return t;
}

FlightJournal &
FlightRecorder::node(const std::string &name)
{
    auto it = nodes_.find(name);
    if (it == nodes_.end()) {
        it = nodes_
                 .emplace(name, std::unique_ptr<FlightJournal>(
                                    new FlightJournal(*this, name,
                                                      capacity_)))
                 .first;
    }
    return *it->second;
}

std::uint64_t
FlightRecorder::totalRecorded() const
{
    std::uint64_t total = 0;
    for (const auto &[name, journal] : nodes_)
        total += journal->recorded();
    return total;
}

void
FlightRecorder::recordLatency(std::string_view op, double value_ns,
                              std::uint64_t trace_id)
{
    auto it = exemplars_.find(op);
    if (it == exemplars_.end())
        it = exemplars_.emplace(std::string(op), TailExemplars{}).first;
    it->second.add(value_ns, trace_id, next_seq_);
}

const TailExemplars *
FlightRecorder::exemplars(std::string_view op) const
{
    auto it = exemplars_.find(op);
    return it == exemplars_.end() ? nullptr : &it->second;
}

std::vector<std::string>
FlightRecorder::exemplarOps() const
{
    std::vector<std::string> ops;
    for (const auto &[op, ex] : exemplars_)
        ops.push_back(op);
    return ops; // std::map iteration: already sorted
}

TraceContext
FlightRecorder::mintTrace()
{
    if (auto *t = tracer())
        return t->newRoot();
    return TraceContext{++next_trace_id_, 1};
}

TraceContext
FlightRecorder::mintChild(const TraceContext &parent)
{
    if (auto *t = tracer())
        return t->childOf(parent);
    if (parent.valid())
        return parent;
    return mintTrace();
}

std::vector<std::pair<const FlightJournal *, const FlightEvent *>>
FlightRecorder::merged() const
{
    std::vector<std::pair<const FlightJournal *, const FlightEvent *>> all;
    for (const auto &[name, journal] : nodes_) {
        for (std::size_t i = 0; i < journal->size(); ++i)
            all.emplace_back(journal.get(), &journal->at(i));
    }
    std::sort(all.begin(), all.end(),
              [](const auto &x, const auto &y) {
                  return x.second->seq < y.second->seq;
              });
    return all;
}

std::vector<std::pair<const FlightJournal *, const FlightEvent *>>
FlightRecorder::window(std::uint64_t center, std::uint64_t radius) const
{
    const std::uint64_t lo = center > radius ? center - radius : 0;
    const std::uint64_t hi = center + radius;
    auto all = merged();
    std::erase_if(all, [lo, hi](const auto &entry) {
        return entry.second->seq < lo || entry.second->seq > hi;
    });
    return all;
}

std::string
FlightRecorder::toJson() const
{
    std::string out = "{\n  \"schema_version\": 1,\n  \"nodes\": {";
    bool first_node = true;
    for (const auto &[name, journal] : nodes_) {
        out += first_node ? "\n" : ",\n";
        first_node = false;
        out += "    \"" + name + "\": {\"recorded\": " +
               std::to_string(journal->recorded()) +
               ", \"capacity\": " + std::to_string(journal->capacity()) +
               ", \"events\": [";
        for (std::size_t i = 0; i < journal->size(); ++i) {
            out += i == 0 ? "\n      " : ",\n      ";
            appendEventJson(out, journal->at(i));
        }
        out += "]}";
    }
    out += "\n  },\n  \"exemplars\": {";
    bool first_op = true;
    for (const auto &[op, ex] : exemplars_) {
        out += first_op ? "\n" : ",\n";
        first_op = false;
        out += "    \"" + op + "\": {\"count\": " +
               std::to_string(ex.count()) + ", \"samples\": [";
        const auto samples = ex.sorted();
        for (std::size_t i = 0; i < samples.size(); ++i) {
            char buf[128];
            std::snprintf(buf, sizeof buf,
                          "%s{\"value_ns\": %.0f, \"trace\": %llu, "
                          "\"seq\": %llu}",
                          i == 0 ? "" : ", ", samples[i].value,
                          static_cast<unsigned long long>(
                              samples[i].trace_id),
                          static_cast<unsigned long long>(samples[i].seq));
            out += buf;
        }
        out += "]}";
    }
    out += "\n  }\n}\n";
    return out;
}

void
FlightRecorder::writeJson(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        NASD_FATAL("flight recorder: cannot open '", path, "' for write");
    const std::string json = toJson();
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
}

FlightRecorder &
flightRecorder()
{
    return g_current_recorder != nullptr ? *g_current_recorder
                                         : defaultRecorder();
}

FlightRecorderScope::FlightRecorderScope(std::size_t per_node_capacity)
    : recorder_(per_node_capacity), previous_(g_current_recorder)
{
    g_current_recorder = &recorder_;
}

FlightRecorderScope::~FlightRecorderScope()
{
    g_current_recorder = previous_;
}

void
armCrashDump(const char *path)
{
    g_crash_dump_path = path;
    setPanicHook(path != nullptr ? &crashDumpHook : nullptr);
}

} // namespace nasd::util
