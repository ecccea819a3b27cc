#include "trace/trace.hh"

#include <cstring>

#include "util/logging.hh"

namespace hp
{

namespace
{

/** On-disk record layout (24 bytes, little-endian). */
struct PackedRecord
{
    std::uint64_t pc;
    std::uint64_t target;
    std::uint32_t func;
    std::uint8_t kind;
    std::uint8_t flags; // bit0 taken, bit1 tagged, bits 2-3 marker
    std::uint16_t markerArg;
};

static_assert(sizeof(PackedRecord) == 24, "trace record must be 24 bytes");

PackedRecord
pack(const DynInst &inst)
{
    PackedRecord rec;
    rec.pc = inst.pc;
    rec.target = inst.target;
    rec.func = inst.func;
    rec.kind = static_cast<std::uint8_t>(inst.kind);
    rec.flags = (inst.taken ? 1 : 0) | (inst.tagged ? 2 : 0) |
                (static_cast<std::uint8_t>(inst.marker) << 2);
    rec.markerArg = inst.markerArg;
    return rec;
}

DynInst
unpack(const PackedRecord &rec)
{
    DynInst inst;
    inst.pc = rec.pc;
    inst.target = rec.target;
    inst.func = rec.func;
    inst.kind = static_cast<InstKind>(rec.kind);
    inst.taken = rec.flags & 1;
    inst.tagged = rec.flags & 2;
    inst.marker = static_cast<StreamMarker>((rec.flags >> 2) & 3);
    inst.markerArg = rec.markerArg;
    return inst;
}

struct Header
{
    std::uint64_t magic;
    std::uint32_t version;
    std::uint32_t reserved;
    std::uint64_t count;
};

static_assert(sizeof(Header) == 24, "trace header must be 24 bytes");

} // namespace

TraceWriter::TraceWriter(const std::string &path) : path_(path)
{
    file_ = std::fopen(path.c_str(), "wb");
    fatalIf(file_ == nullptr, "cannot open trace for writing: " + path);
    writeHeader();
}

TraceWriter::~TraceWriter()
{
    if (!closed_)
        close();
}

void
TraceWriter::writeHeader()
{
    Header header{kTraceMagic, kTraceVersion, 0, count_};
    fatalIf(std::fseek(file_, 0, SEEK_SET) != 0,
            "trace header seek failed: " + path_);
    std::size_t n = std::fwrite(&header, sizeof(header), 1, file_);
    fatalIf(n != 1, "trace header write failed: " + path_);
    fatalIf(std::fseek(file_, 0, SEEK_END) != 0,
            "trace header seek failed: " + path_);
}

void
TraceWriter::write(const DynInst &inst)
{
    panicIf(closed_, "write to closed TraceWriter");
    PackedRecord rec = pack(inst);
    std::size_t n = std::fwrite(&rec, sizeof(rec), 1, file_);
    // A short fwrite (n == 0 here: one whole record or nothing lands
    // in the stdio buffer) is how a full disk first shows up.
    fatalIf(n != 1, "trace record write failed (disk full?): " + path_);
    ++count_;
}

void
TraceWriter::close()
{
    if (closed_)
        return;
    writeHeader();
    // Buffered record bytes only hit the file here; check the flush
    // explicitly so close() cannot silently drop the tail of a trace.
    fatalIf(std::fflush(file_) != 0,
            "trace flush failed (disk full?): " + path_);
    fatalIf(std::fclose(file_) != 0, "trace close failed: " + path_);
    file_ = nullptr;
    closed_ = true;
}

TraceReader::TraceReader(const std::string &path) : path_(path)
{
    file_ = std::fopen(path.c_str(), "rb");
    fatalIf(file_ == nullptr, "cannot open trace for reading: " + path);
    Header header{};
    std::size_t n = std::fread(&header, sizeof(header), 1, file_);
    fatalIf(n != 1, "trace header read failed: " + path);
    fatalIf(header.magic != kTraceMagic, "not a trace file: " + path);
    fatalIf(header.version != kTraceVersion,
            "unsupported trace version in " + path);
    total_ = header.count;
}

TraceReader::~TraceReader()
{
    if (file_)
        std::fclose(file_);
}

bool
TraceReader::next(DynInst &inst)
{
    if (consumed_ >= total_)
        return false;
    PackedRecord rec;
    std::size_t n = std::fread(&rec, sizeof(rec), 1, file_);
    // The header promised more records than the file holds: a cut-off
    // copy or a writer that died mid-trace, never a normal end.
    if (n != 1) {
        fatal("truncated trace " + path_ + ": expected " +
              std::to_string(total_) + " records, read " +
              std::to_string(consumed_));
    }
    inst = unpack(rec);
    ++consumed_;
    return true;
}

} // namespace hp
