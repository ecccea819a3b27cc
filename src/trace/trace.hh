/**
 * @file
 * Binary instruction trace format: capture a workload's dynamic
 * instruction stream to a file and replay it later through the same
 * InstStream interface the live engine implements. Useful for sharing
 * deterministic inputs and for the trace-inspection example tool.
 *
 * Format: a 24-byte header (magic, version, instruction count) followed
 * by packed 24-byte records.
 */

#ifndef HP_TRACE_TRACE_HH
#define HP_TRACE_TRACE_HH

#include <cstdio>
#include <memory>
#include <string>

#include "isa/inst.hh"

namespace hp
{

/** Magic number identifying a trace file ("HPTRACE1"). */
constexpr std::uint64_t kTraceMagic = 0x3145434152545048ULL;

/** Trace format version. */
constexpr std::uint32_t kTraceVersion = 1;

/** Writes DynInst records to a file. */
class TraceWriter
{
  public:
    /** Opens @p path for writing; fatals on failure. */
    explicit TraceWriter(const std::string &path);

    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** Appends one instruction; fatals (with the path) on a short or
     *  failed write — e.g. a full disk — instead of silently producing
     *  a truncated trace. */
    void write(const DynInst &inst);

    /** Flushes buffers, finalizes the header, and closes the file;
     *  fatals (with the path) when the flush or close reports an I/O
     *  error, so a trace that "wrote fine" is actually on disk. */
    void close();

    std::uint64_t written() const { return count_; }

  private:
    void writeHeader();

    std::FILE *file_ = nullptr;
    std::string path_;
    std::uint64_t count_ = 0;
    bool closed_ = false;
};

/** Reads a trace file back as an InstStream. */
class TraceReader : public InstStream
{
  public:
    /** Opens @p path; fatals on bad magic/version. next() fatals on
     *  a file holding fewer records than its header promises. */
    explicit TraceReader(const std::string &path);

    ~TraceReader() override;

    TraceReader(const TraceReader &) = delete;
    TraceReader &operator=(const TraceReader &) = delete;

    bool next(DynInst &inst) override;

    /** Total instructions recorded in the header. */
    std::uint64_t total() const { return total_; }

    std::uint64_t consumed() const { return consumed_; }

  private:
    std::FILE *file_ = nullptr;
    std::string path_;
    std::uint64_t total_ = 0;
    std::uint64_t consumed_ = 0;
};

} // namespace hp

#endif // HP_TRACE_TRACE_HH
