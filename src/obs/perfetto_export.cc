#include "obs/perfetto_export.hh"

#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "util/logging.hh"

namespace hp
{

const char *
eventKindName(EventKind kind)
{
    switch (kind) {
      case EventKind::FtqStallBtbMiss: return "ftq stall (btb miss)";
      case EventKind::FtqStallMispredict:
        return "ftq stall (mispredict)";
      case EventKind::FetchStall: return "fetch stall";
      case EventKind::ItlbWalk: return "itlb walk";
      case EventKind::BackendStall: return "backend stall";
      case EventKind::DemandMissL2: return "demand miss (l2)";
      case EventKind::DemandMissLlc: return "demand miss (llc)";
      case EventKind::DemandMissMem: return "demand miss (mem)";
      case EventKind::DemandMissMshr: return "demand miss (mshr)";
      case EventKind::PrefetchIssued: return "prefetch issued";
      case EventKind::PrefetchRedundant: return "prefetch redundant";
      case EventKind::PrefetchDropped: return "prefetch dropped";
      case EventKind::PrefetchSquashed: return "prefetch squashed";
      case EventKind::PrefetchFill: return "prefetch fill";
      case EventKind::PrefetchLate: return "prefetch late";
      case EventKind::PrefetchEvictedUnused:
        return "prefetch evicted unused";
      case EventKind::BundleBoundary: return "bundle boundary";
      case EventKind::BundleRecord: return "bundle record";
      case EventKind::CompressionFlush: return "compression flush";
      case EventKind::SegmentAllocated: return "segment allocated";
      case EventKind::ReplayStart: return "replay start";
      case EventKind::SegmentFetch: return "segment fetch";
      case EventKind::MetadataRead: return "metadata read";
      case EventKind::MetadataWrite: return "metadata write";
      case EventKind::RequestSpan: return "request";
      case EventKind::ContextSwitch: return "context switch";
      case EventKind::ChainHandoff: return "chain handoff";
      case EventKind::kCount: break;
    }
    return "?";
}

bool
eventKindIsSpan(EventKind kind)
{
    switch (kind) {
      case EventKind::FtqStallBtbMiss:
      case EventKind::FtqStallMispredict:
      case EventKind::FetchStall:
      case EventKind::ItlbWalk:
      case EventKind::BackendStall:
      case EventKind::DemandMissL2:
      case EventKind::DemandMissLlc:
      case EventKind::DemandMissMem:
      case EventKind::DemandMissMshr:
      case EventKind::BundleRecord:
      case EventKind::SegmentFetch:
      case EventKind::MetadataRead:
      case EventKind::RequestSpan:
        return true;
      default:
        return false;
    }
}

} // namespace hp

namespace hp::obs
{

namespace
{

/** Tenant/service tracks are capped; higher indices share the last. */
constexpr unsigned kPerGroupTracks = 8;

enum Track : unsigned
{
    kTrackFrontend = 1,
    kTrackBackend,
    kTrackL1i,
    kTrackFdip,
    kTrackExt,
    kTrackRecord,
    kTrackReplay,
    kTrackMetadata,
    kTrackRequests,
    kTrackTenantBase, // "tenant0" .. "tenant7"
    kTrackSvcBase = kTrackTenantBase + kPerGroupTracks, // "svc0" ..
    kTrackMax = kTrackSvcBase + kPerGroupTracks - 1,
};

/** Origin::Fdip has enum value 1 (cache/cache.hh). */
constexpr std::uint8_t kOriginFdip = 1;

unsigned
clampGroup(unsigned idx)
{
    return idx < kPerGroupTracks ? idx : kPerGroupTracks - 1;
}

} // namespace

unsigned
eventTrack(EventKind kind, std::uint8_t origin)
{
    switch (kind) {
      case EventKind::FtqStallBtbMiss:
      case EventKind::FtqStallMispredict:
      case EventKind::FetchStall:
      case EventKind::ItlbWalk:
        return kTrackFrontend;
      case EventKind::BackendStall:
        return kTrackBackend;
      case EventKind::DemandMissL2:
      case EventKind::DemandMissLlc:
      case EventKind::DemandMissMem:
      case EventKind::DemandMissMshr:
      case EventKind::PrefetchFill:
      case EventKind::PrefetchLate:
      case EventKind::PrefetchEvictedUnused:
        return kTrackL1i;
      case EventKind::PrefetchIssued:
      case EventKind::PrefetchRedundant:
      case EventKind::PrefetchDropped:
      case EventKind::PrefetchSquashed:
        return origin == kOriginFdip ? kTrackFdip : kTrackExt;
      case EventKind::BundleBoundary:
      case EventKind::BundleRecord:
      case EventKind::CompressionFlush:
      case EventKind::SegmentAllocated:
        return kTrackRecord;
      case EventKind::ReplayStart:
      case EventKind::SegmentFetch:
        return kTrackReplay;
      case EventKind::MetadataRead:
      case EventKind::MetadataWrite:
        return kTrackMetadata;
      case EventKind::RequestSpan:
        return kTrackRequests;
      case EventKind::ContextSwitch:
        return kTrackTenantBase + clampGroup(origin);
      case EventKind::ChainHandoff:
        // The flow's finish side; the start side lands on the previous
        // service's track (origin's high nibble, see appendEvent).
        return kTrackSvcBase + clampGroup(origin & 0xf);
      case EventKind::kCount:
        break;
    }
    return kTrackFrontend;
}

const char *
trackName(unsigned track)
{
    static const char *const tenant_names[kPerGroupTracks] = {
        "tenant0", "tenant1", "tenant2", "tenant3",
        "tenant4", "tenant5", "tenant6", "tenant7"};
    static const char *const svc_names[kPerGroupTracks] = {
        "svc0", "svc1", "svc2", "svc3",
        "svc4", "svc5", "svc6", "svc7"};
    switch (track) {
      case kTrackFrontend: return "frontend";
      case kTrackBackend: return "backend";
      case kTrackL1i: return "l1i";
      case kTrackFdip: return "fdip";
      case kTrackExt: return "ext";
      case kTrackRecord: return "record";
      case kTrackReplay: return "replay";
      case kTrackMetadata: return "metadata";
      case kTrackRequests: return "requests";
    }
    if (track >= kTrackTenantBase && track < kTrackSvcBase)
        return tenant_names[track - kTrackTenantBase];
    if (track >= kTrackSvcBase && track <= kTrackMax)
        return svc_names[track - kTrackSvcBase];
    return "?";
}

unsigned
numTracks()
{
    return kTrackMax;
}

namespace
{

void
jsonEscapeInto(std::ostringstream &out, const std::string &s)
{
    for (char c : s) {
        if (c == '"' || c == '\\')
            out << '\\';
        out << c;
    }
}

void
appendMeta(std::ostringstream &out, bool &first, unsigned pid,
           unsigned tid, const char *meta_name, const std::string &name)
{
    out << (first ? "" : ",") << "\n    {\"name\":\"" << meta_name
        << "\",\"ph\":\"M\",\"pid\":" << pid;
    if (tid != 0)
        out << ",\"tid\":" << tid;
    out << ",\"args\":{\"name\":\"";
    jsonEscapeInto(out, name);
    out << "\"}}";
    first = false;
}

void
appendEvent(std::ostringstream &out, bool &first, unsigned pid,
            const TraceEvent &ev)
{
    if (ev.kind == EventKind::ChainHandoff) {
        // One recorded event becomes a flow pair: start on the track
        // of the service the request left (high origin nibble), finish
        // on the one it entered. The flow id folds the hop counter in
        // so each hand-off of a request renders as its own arrow.
        const unsigned from =
            kTrackSvcBase + clampGroup(ev.origin >> 4);
        const unsigned to = kTrackSvcBase + clampGroup(ev.origin & 0xf);
        const std::uint64_t id = ev.arg * 256 + ev.dur;
        const Cycle start = ev.cycle > 0 ? ev.cycle - 1 : 0;
        out << (first ? "" : ",")
            << "\n    {\"name\":\"chain handoff\",\"cat\":\"req\","
               "\"ph\":\"s\",\"id\":" << id << ",\"ts\":" << start
            << ",\"pid\":" << pid << ",\"tid\":" << from << "},"
            << "\n    {\"name\":\"chain handoff\",\"cat\":\"req\","
               "\"ph\":\"f\",\"bp\":\"e\",\"id\":" << id
            << ",\"ts\":" << ev.cycle << ",\"pid\":" << pid
            << ",\"tid\":" << to << "}";
        first = false;
        return;
    }
    const unsigned tid = eventTrack(ev.kind, ev.origin);
    const bool span = eventKindIsSpan(ev.kind);
    out << (first ? "" : ",") << "\n    {\"name\":\""
        << eventKindName(ev.kind) << "\",\"ph\":\""
        << (span ? "X" : "i") << "\",\"ts\":" << ev.cycle;
    if (span)
        out << ",\"dur\":" << ev.dur;
    else
        out << ",\"s\":\"t\"";
    out << ",\"pid\":" << pid << ",\"tid\":" << tid << ",\"args\":{";
    char addr_buf[32];
    std::snprintf(addr_buf, sizeof(addr_buf), "0x%" PRIx64,
                  static_cast<std::uint64_t>(ev.addr));
    out << "\"addr\":\"" << addr_buf << "\",\"arg\":" << ev.arg << "}}";
    first = false;
}

} // namespace

std::string
perfettoJson(const std::vector<RunCapture> &runs)
{
    std::ostringstream out;
    out << "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [";
    bool first = true;
    unsigned pid = 0;
    for (const RunCapture &run : runs) {
        std::ostringstream pname;
        pname << run.label << " #" << pid;
        if (run.eventsDropped > 0)
            pname << " (dropped " << run.eventsDropped
                  << " oldest events)";
        appendMeta(out, first, pid, 0, "process_name", pname.str());
        bool used[kTrackMax + 1] = {};
        for (const TraceEvent &ev : run.events) {
            used[eventTrack(ev.kind, ev.origin)] = true;
            if (ev.kind == EventKind::ChainHandoff)
                used[kTrackSvcBase + clampGroup(ev.origin >> 4)] = true;
        }
        for (unsigned t = 1; t <= kTrackMax; ++t) {
            if (used[t])
                appendMeta(out, first, pid, t, "thread_name",
                           trackName(t));
        }
        for (const TraceEvent &ev : run.events)
            appendEvent(out, first, pid, ev);
        ++pid;
    }
    out << "\n  ]\n}\n";
    return out.str();
}

void
writePerfettoJson(const std::string &path,
                  const std::vector<RunCapture> &runs)
{
    const std::string doc = perfettoJson(runs);
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        fatal("cannot open trace JSON for writing: " + path);
    const std::size_t n = std::fwrite(doc.data(), 1, doc.size(), f);
    if (n != doc.size()) {
        std::fclose(f);
        fatal("short write to trace JSON: " + path);
    }
    if (std::fclose(f) != 0)
        fatal("error closing trace JSON: " + path);
}

} // namespace hp::obs
