#include "storage/durable_store.hpp"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <sstream>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>

#include "graph/builder.hpp"
#include "metrics/trace.hpp"

namespace digraph::storage {

namespace {

constexpr std::uint64_t kMetaMagic = 0x44695374'4d455441ULL; // DiStMETA
constexpr std::uint64_t kTopoMagic = 0x44695374'544f504fULL; // DiStTOPO
constexpr std::uint64_t kValsMagic = 0x44695374'56414c53ULL; // DiStVALS
constexpr std::uint64_t kDeltaMagic = 0x44695374'444c5441ULL; // DiStDLTA
constexpr std::uint32_t kFormatVersion = 1;

/** Growable little-endian byte buffer (shard serialization). */
class ByteWriter
{
  public:
    template <typename T>
    void
    pod(const T &value)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        const auto *p = reinterpret_cast<const std::uint8_t *>(&value);
        buf_.insert(buf_.end(), p, p + sizeof(T));
    }

    template <typename T>
    void
    vec(const std::vector<T> &values)
    {
        pod(static_cast<std::uint64_t>(values.size()));
        const auto *p =
            reinterpret_cast<const std::uint8_t *>(values.data());
        buf_.insert(buf_.end(), p, p + values.size() * sizeof(T));
    }

    void
    span(std::span<const Value> values)
    {
        pod(static_cast<std::uint64_t>(values.size()));
        const auto *p =
            reinterpret_cast<const std::uint8_t *>(values.data());
        buf_.insert(buf_.end(), p, p + values.size_bytes());
    }

    std::vector<std::uint8_t> take() { return std::move(buf_); }

  private:
    std::vector<std::uint8_t> buf_;
};

/**
 * Bounds-checked reader over a mapped shard. Every accessor fails
 * cleanly (ok() false) on truncated or oversized-count input, so a torn
 * file can never drive an out-of-bounds read.
 */
class ByteReader
{
  public:
    ByteReader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    bool ok() const { return ok_; }

    template <typename T>
    bool
    pod(T &value)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        if (!ok_ || size_ - off_ < sizeof(T))
            return fail();
        std::memcpy(&value, data_ + off_, sizeof(T));
        off_ += sizeof(T);
        return true;
    }

    template <typename T>
    bool
    vec(std::vector<T> &values)
    {
        std::uint64_t count = 0;
        if (!pod(count))
            return false;
        if (count > (size_ - off_) / sizeof(T))
            return fail();
        values.resize(count);
        std::memcpy(values.data(), data_ + off_, count * sizeof(T));
        off_ += count * sizeof(T);
        return true;
    }

    /** Everything consumed exactly (no trailing garbage). */
    bool atEnd() const { return ok_ && off_ == size_; }

  private:
    bool
    fail()
    {
        ok_ = false;
        return false;
    }

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t off_ = 0;
    bool ok_ = true;
};

/** First out-CSR edge id of (src, dst), or kInvalidEdge when absent. */
EdgeId
firstEdgeId(const graph::DirectedGraph &g, VertexId src, VertexId dst)
{
    if (src >= g.numVertices())
        return kInvalidEdge;
    const auto nbrs = g.outNeighbors(src);
    const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), dst);
    if (it == nbrs.end() || *it != dst)
        return kInvalidEdge;
    return g.outOffset(src) +
           static_cast<EdgeId>(it - nbrs.begin());
}

/** Per-path cumulative edge counts (E_val slice boundaries): the E_val
 *  index of path p's first edge is offsets[p]; offsets.back() is the
 *  total. */
std::vector<std::uint64_t>
pathEdgeOffsets(const partition::PathSet &paths)
{
    std::vector<std::uint64_t> offsets(paths.numPaths() + 1, 0);
    for (PathId p = 0; p < paths.numPaths(); ++p)
        offsets[p + 1] = offsets[p] + paths.pathLength(p);
    return offsets;
}

std::vector<std::uint8_t>
serializeMeta(const partition::Preprocessed &pre)
{
    ByteWriter w;
    w.pod(kMetaMagic);
    w.pod(kFormatVersion);
    w.pod(static_cast<std::uint64_t>(pre.merges));
    w.vec(pre.partition_offsets);
    w.vec(pre.partition_layer);
    w.vec(pre.scc_of_path);
    w.vec(pre.path_layer);
    w.vec(pre.path_hot);
    w.vec(pre.path_avg_degree);
    w.pod(static_cast<std::uint64_t>(pre.dag.num_sccs));
    w.vec(pre.dag.layer);
    const auto sketch_edges = pre.dag.sketch.edgeList();
    std::vector<VertexId> sketch_src, sketch_dst;
    sketch_src.reserve(sketch_edges.size());
    sketch_dst.reserve(sketch_edges.size());
    for (const auto &e : sketch_edges) {
        sketch_src.push_back(e.src);
        sketch_dst.push_back(e.dst);
    }
    w.vec(sketch_src);
    w.vec(sketch_dst);
    return w.take();
}

/**
 * Partition @p q's topology: per-path vertex sequences plus ordinal
 * fixups for parallel edges. Edge ids are deliberately NOT stored —
 * they are positional in the out-CSR and an evolving-graph append
 * renumbers them, which would invalidate reused parent shards; the
 * loader recomputes each id from (src, dst) + ordinal against the
 * current graph, so a shard's bytes stay valid as long as its paths are
 * carried over verbatim (appendPreprocess's contract).
 */
std::vector<std::uint8_t>
serializeTopo(const partition::Preprocessed &pre,
              const graph::DirectedGraph &g, PartitionId q)
{
    const PathId lo = pre.partition_offsets[q];
    const PathId hi = pre.partition_offsets[q + 1];
    ByteWriter w;
    w.pod(kTopoMagic);
    w.pod(static_cast<std::uint64_t>(lo));
    w.pod(static_cast<std::uint64_t>(hi - lo));

    std::vector<std::uint64_t> offsets;
    std::vector<VertexId> vertices;
    std::vector<std::uint64_t> fixup_index;
    std::vector<std::uint32_t> fixup_ordinal;
    offsets.reserve(hi - lo + 1);
    std::uint64_t vertex_cursor = 0;
    std::uint64_t edge_cursor = 0;
    for (PathId p = lo; p < hi; ++p) {
        offsets.push_back(vertex_cursor);
        const auto verts = pre.paths.pathVertices(p);
        const auto edges = pre.paths.pathEdges(p);
        vertices.insert(vertices.end(), verts.begin(), verts.end());
        vertex_cursor += verts.size();
        for (std::size_t i = 0; i < edges.size(); ++i) {
            const EdgeId base = firstEdgeId(g, verts[i], verts[i + 1]);
            if (edges[i] != base) {
                // Parallel edge beyond the first (src, dst) occurrence.
                fixup_index.push_back(edge_cursor + i);
                fixup_ordinal.push_back(
                    static_cast<std::uint32_t>(edges[i] - base));
            }
        }
        edge_cursor += edges.size();
    }
    offsets.push_back(vertex_cursor);
    w.vec(offsets);
    w.vec(vertices);
    w.vec(fixup_index);
    w.vec(fixup_ordinal);
    return w.take();
}

/** The batch edges an epoch adds over its parent, as parallel vectors
 *  (graph::Edge may carry padding bytes — never serialize it raw). */
std::vector<std::uint8_t>
serializeDelta(const std::vector<graph::Edge> &edges)
{
    std::vector<VertexId> src, dst;
    std::vector<Value> weight;
    src.reserve(edges.size());
    dst.reserve(edges.size());
    weight.reserve(edges.size());
    for (const graph::Edge &e : edges) {
        src.push_back(e.src);
        dst.push_back(e.dst);
        weight.push_back(e.weight);
    }
    ByteWriter w;
    w.pod(kDeltaMagic);
    w.vec(src);
    w.vec(dst);
    w.vec(weight);
    return w.take();
}

/** The manifests' graph fingerprint: FNV-1a over every edge's source,
 *  target and weight bits, so a version built for a different graph of
 *  the same shape never verifies (vertex/edge counts alone would). */
std::uint64_t
graphContentChecksum(const graph::DirectedGraph &g)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](std::uint64_t word) {
        for (unsigned byte = 0; byte < 8; ++byte) {
            h ^= (word >> (8 * byte)) & 0xffULL;
            h *= 0x100000001b3ULL;
        }
    };
    for (EdgeId e = 0; e < g.numEdges(); ++e) {
        mix(g.edgeSource(e));
        mix(g.edgeTarget(e));
        std::uint64_t weight_bits = 0;
        const Value w = g.edgeWeight(e);
        static_assert(sizeof(weight_bits) == sizeof(w));
        std::memcpy(&weight_bits, &w, sizeof(weight_bits));
        mix(weight_bits);
    }
    return h;
}

} // namespace

std::uint64_t
fnv1a(const void *data, std::size_t bytes)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < bytes; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

const ShardEntry *
Manifest::find(const std::string &name) const
{
    for (const auto &entry : shards) {
        if (entry.name == name)
            return &entry;
    }
    return nullptr;
}

// --- manifest JSON (writer-controlled subset: unique keys per scope,
// numbers unquoted, strings without escapes) ---

namespace {

bool
jsonU64(const std::string &text, const std::string &key,
        std::uint64_t &out)
{
    const std::string needle = "\"" + key + "\":";
    const auto pos = text.find(needle);
    if (pos == std::string::npos)
        return false;
    std::size_t i = pos + needle.size();
    while (i < text.size() && text[i] == ' ')
        ++i;
    if (i >= text.size() ||
        !std::isdigit(static_cast<unsigned char>(text[i])))
        return false;
    out = 0;
    while (i < text.size() &&
           std::isdigit(static_cast<unsigned char>(text[i])))
        out = out * 10 + static_cast<std::uint64_t>(text[i++] - '0');
    return true;
}

bool
jsonString(const std::string &text, const std::string &key,
           std::string &out)
{
    const std::string needle = "\"" + key + "\":";
    auto pos = text.find(needle);
    if (pos == std::string::npos)
        return false;
    pos = text.find('"', pos + needle.size());
    if (pos == std::string::npos)
        return false;
    const auto end = text.find('"', pos + 1);
    if (end == std::string::npos)
        return false;
    out = text.substr(pos + 1, end - pos - 1);
    return true;
}

std::string
manifestJson(const Manifest &m)
{
    std::ostringstream out;
    out << "{\n"
        << "  \"format\": \"digraph-store\",\n"
        << "  \"format_version\": " << kFormatVersion << ",\n"
        << "  \"version\": " << m.version << ",\n"
        << "  \"parent\": " << m.parent << ",\n"
        << "  \"vertices\": " << m.vertices << ",\n"
        << "  \"edges\": " << m.edges << ",\n"
        << "  \"graph_checksum\": " << m.graph_checksum << ",\n"
        << "  \"partitions\": " << m.partitions << ",\n"
        << "  \"has_values\": " << (m.has_values ? 1 : 0) << ",\n"
        << "  \"shard_count\": " << m.shards.size() << ",\n"
        << "  \"shards\": [\n";
    for (std::size_t i = 0; i < m.shards.size(); ++i) {
        const auto &s = m.shards[i];
        out << "    {\"name\": \"" << s.name << "\", \"file\": \""
            << s.file << "\", \"bytes\": " << s.bytes
            << ", \"checksum\": " << s.checksum << "}"
            << (i + 1 < m.shards.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    return out.str();
}

std::optional<Manifest>
parseManifest(const std::string &text)
{
    std::string format;
    if (!jsonString(text, "format", format) || format != "digraph-store")
        return std::nullopt;
    std::uint64_t format_version = 0, has_values = 0;
    Manifest m;
    if (!jsonU64(text, "format_version", format_version) ||
        format_version != kFormatVersion ||
        !jsonU64(text, "version", m.version) ||
        !jsonU64(text, "parent", m.parent) ||
        !jsonU64(text, "vertices", m.vertices) ||
        !jsonU64(text, "edges", m.edges) ||
        !jsonU64(text, "graph_checksum", m.graph_checksum) ||
        !jsonU64(text, "partitions", m.partitions) ||
        !jsonU64(text, "has_values", has_values)) {
        return std::nullopt;
    }
    m.has_values = has_values != 0;
    // The declared shard count guards against a torn manifest whose
    // truncated prefix still parses: a file cut mid-list would yield
    // fewer entries than declared and must be treated as absent.
    std::uint64_t shard_count = 0;
    if (!jsonU64(text, "shard_count", shard_count))
        return std::nullopt;
    const auto list = text.find("\"shards\":");
    if (list == std::string::npos)
        return std::nullopt;
    std::size_t cursor = list;
    while (true) {
        const auto open = text.find('{', cursor);
        if (open == std::string::npos)
            break;
        const auto close = text.find('}', open);
        if (close == std::string::npos)
            return std::nullopt; // torn manifest
        const std::string obj = text.substr(open, close - open + 1);
        ShardEntry entry;
        if (!jsonString(obj, "name", entry.name) ||
            !jsonString(obj, "file", entry.file) ||
            !jsonU64(obj, "bytes", entry.bytes) ||
            !jsonU64(obj, "checksum", entry.checksum)) {
            return std::nullopt;
        }
        m.shards.push_back(std::move(entry));
        cursor = close + 1;
    }
    if (m.shards.empty() || m.shards.size() != shard_count)
        return std::nullopt;
    return m;
}

} // namespace

// --- DurableStore ---

DurableStore::DurableStore(std::string dir, FileOps *ops)
    : dir_(std::move(dir)), ops_(ops ? ops : &RealFileOps::instance())
{
}

std::string
DurableStore::shardFile(const std::string &name,
                        std::uint64_t version) const
{
    return name + ".v" + std::to_string(version) + ".shard";
}

std::string
DurableStore::manifestFile(std::uint64_t version) const
{
    return "MANIFEST.v" + std::to_string(version) + ".json";
}

bool
DurableStore::writeShard(const std::string &name, std::uint64_t version,
                         const std::vector<std::uint8_t> &payload,
                         ShardEntry &entry)
{
    entry.name = name;
    entry.file = shardFile(name, version);
    entry.bytes = payload.size();
    entry.checksum = fnv1a(payload.data(), payload.size());
    if (!ops_->writeFileAtomic(dir_ + "/" + entry.file, payload.data(),
                               payload.size()))
        return false;
    ++stats_.shards_written;
    stats_.bytes_written += payload.size();
    return true;
}

MappedFile
DurableStore::mapVerified(const ShardEntry &entry)
{
    MappedFile mapped = ops_->mapFile(dir_ + "/" + entry.file);
    if (!mapped.valid() || mapped.size() != entry.bytes ||
        fnv1a(mapped.data(), mapped.size()) != entry.checksum)
        return {};
    return mapped;
}

bool
DurableStore::writeManifest(const Manifest &m)
{
    const std::string json = manifestJson(m);
    // The manifest rename is the commit point: readers only learn about
    // the version's shards through it, and it lands atomically last.
    if (!ops_->writeFileAtomic(dir_ + "/" + manifestFile(m.version),
                               json.data(), json.size()))
        return false;
    stats_.bytes_written += json.size();
    return true;
}

void
DurableStore::emitCommit(std::uint64_t version,
                         std::uint64_t shards_written)
{
    ++stats_.commits;
    if (trace_) {
        trace_->event(metrics::TraceEventType::StoreCommit, 0,
                      metrics::kTraceNoPartition, 0.0, 0.0, version,
                      shards_written);
    }
}

std::vector<std::uint64_t>
DurableStore::listVersions() const
{
    std::vector<std::uint64_t> versions;
    for (const std::string &name : ops_->listDir(dir_)) {
        if (name.size() <= 15 || name.rfind("MANIFEST.v", 0) != 0 ||
            name.substr(name.size() - 5) != ".json")
            continue;
        const std::string digits =
            name.substr(10, name.size() - 15);
        // <= 19 digits always fits in a uint64_t; longer names are
        // tampered/corrupt and must be skipped, not crash recovery
        // with std::out_of_range.
        if (digits.empty() || digits.size() > 19 ||
            digits.find_first_not_of("0123456789") != std::string::npos)
            continue;
        versions.push_back(std::stoull(digits));
    }
    std::sort(versions.begin(), versions.end());
    return versions;
}

std::uint64_t
DurableStore::newestVersion() const
{
    const auto versions = listVersions();
    return versions.empty() ? 0 : versions.back();
}

std::optional<Manifest>
DurableStore::readManifest(std::uint64_t version) const
{
    const MappedFile mapped =
        ops_->mapFile(dir_ + "/" + manifestFile(version));
    if (!mapped.valid())
        return std::nullopt;
    const std::string text(reinterpret_cast<const char *>(mapped.data()),
                           mapped.size());
    auto m = parseManifest(text);
    if (m && m->version != version)
        return std::nullopt; // file renamed by hand
    return m;
}

std::uint64_t
DurableStore::commitTopology(const graph::DirectedGraph &g,
                             const partition::Preprocessed &pre,
                             std::uint64_t parent,
                             const std::vector<graph::Edge> *delta)
{
    if (pre.numPartitions() == 0 || !ops_->createDir(dir_))
        return 0;

    Manifest m;
    m.version = newestVersion() + 1;
    m.parent = parent;
    m.vertices = g.numVertices();
    m.edges = g.numEdges();
    m.graph_checksum = graphContentChecksum(g);
    m.partitions = pre.numPartitions();
    m.has_values = false;

    std::optional<Manifest> pm;
    if (parent != 0) {
        pm = readManifest(parent);
        if (!pm)
            return 0;
    }
    // Carried-over partitions keep their parent shard files verbatim:
    // appendPreprocess() reuses previous paths and partition boundaries
    // untouched, and topo shards are edge-id-free (see serializeTopo),
    // so only appended partitions need new bytes.
    const bool reuse = pm.has_value() && pre.incremental &&
                       pm->partitions <= m.partitions;

    ShardEntry meta;
    if (!writeShard("meta", m.version, serializeMeta(pre), meta))
        return 0;
    m.shards.push_back(meta);
    std::uint64_t written = 1;

    if (delta && !delta->empty()) {
        // Epoch lineage link: the accepted batch edges, replayable
        // through GraphBuilder::append against the parent's graph.
        ShardEntry entry;
        if (!writeShard("delta", m.version, serializeDelta(*delta),
                        entry))
            return 0;
        m.shards.push_back(entry);
        ++written;
    }

    for (PartitionId q = 0; q < pre.numPartitions(); ++q) {
        const std::string name = "topo.p" + std::to_string(q);
        if (reuse && q < pm->partitions) {
            const ShardEntry *pe = pm->find(name);
            if (pe && ops_->exists(dir_ + "/" + pe->file)) {
                m.shards.push_back(*pe);
                ++stats_.shards_reused;
                continue;
            }
        }
        ShardEntry entry;
        if (!writeShard(name, m.version, serializeTopo(pre, g, q),
                        entry))
            return 0;
        m.shards.push_back(entry);
        ++written;
    }

    if (!writeManifest(m))
        return 0;
    emitCommit(m.version, written);
    return m.version;
}

std::uint64_t
DurableStore::commitValues(const graph::DirectedGraph &g,
                           const partition::Preprocessed &pre,
                           std::span<const Value> v_val,
                           std::span<const Value> e_val,
                           const std::vector<VertexId> &active,
                           std::uint64_t parent,
                           const std::vector<PartitionId> *dirty)
{
    const auto edge_offsets = pathEdgeOffsets(pre.paths);
    if (v_val.size() != g.numVertices() ||
        e_val.size() != edge_offsets.back() || parent == 0)
        return 0;
    auto pm = readManifest(parent);
    if (!pm)
        return 0;

    Manifest m;
    m.version = newestVersion() + 1;
    m.parent = parent;
    m.vertices = g.numVertices();
    m.edges = g.numEdges();
    m.graph_checksum = graphContentChecksum(g);
    m.partitions = pre.numPartitions();
    m.has_values = true;
    // The parent supplies the topology shards; they must describe this
    // exact substrate.
    if (pm->graph_checksum != m.graph_checksum ||
        pm->partitions != m.partitions)
        return 0;

    for (const auto &entry : pm->shards) {
        if (entry.name == "meta" || entry.name.rfind("topo.", 0) == 0) {
            m.shards.push_back(entry);
            ++stats_.shards_reused;
        }
    }

    ByteWriter vw;
    vw.pod(kValsMagic);
    vw.span(v_val);
    vw.vec(active);
    ShardEntry vvals;
    if (!writeShard("vvals", m.version, vw.take(), vvals))
        return 0;
    m.shards.push_back(vvals);
    std::uint64_t written = 1;

    std::vector<std::uint8_t> is_dirty;
    if (dirty) {
        is_dirty.assign(m.partitions, 0);
        for (const PartitionId q : *dirty) {
            if (q < m.partitions)
                is_dirty[q] = 1;
        }
    }
    for (PartitionId q = 0; q < m.partitions; ++q) {
        const std::string name = "evals.p" + std::to_string(q);
        const ShardEntry *pe = pm->find(name);
        const bool clean = dirty && !is_dirty[q] && pe &&
                           ops_->exists(dir_ + "/" + pe->file);
        if (clean) {
            m.shards.push_back(*pe);
            ++stats_.shards_reused;
            continue;
        }
        const PathId lo = pre.partition_offsets[q];
        const PathId hi = pre.partition_offsets[q + 1];
        const std::uint64_t first = edge_offsets[lo];
        const std::uint64_t count = edge_offsets[hi] - first;
        ByteWriter ew;
        ew.pod(kValsMagic);
        ew.pod(first);
        ew.span(e_val.subspan(first, count));
        ShardEntry entry;
        if (!writeShard(name, m.version, ew.take(), entry))
            return 0;
        m.shards.push_back(entry);
        ++written;
    }

    if (!writeManifest(m))
        return 0;
    emitCommit(m.version, written);
    return m.version;
}

std::optional<partition::Preprocessed>
DurableStore::loadTopology(std::uint64_t version,
                           const graph::DirectedGraph &g)
{
    auto m = readManifest(version);
    if (!m || m->vertices != g.numVertices() ||
        m->edges != g.numEdges() ||
        m->graph_checksum != graphContentChecksum(g))
        return std::nullopt;

    const ShardEntry *meta_entry = m->find("meta");
    if (!meta_entry)
        return std::nullopt;
    const MappedFile meta = mapVerified(*meta_entry);
    if (!meta.valid())
        return std::nullopt;

    partition::Preprocessed pre;
    {
        ByteReader r(meta.data(), meta.size());
        std::uint64_t magic = 0, merges = 0, num_sccs = 0;
        std::uint32_t format = 0;
        std::vector<VertexId> sketch_src, sketch_dst;
        if (!r.pod(magic) || magic != kMetaMagic || !r.pod(format) ||
            format != kFormatVersion || !r.pod(merges) ||
            !r.vec(pre.partition_offsets) ||
            !r.vec(pre.partition_layer) || !r.vec(pre.scc_of_path) ||
            !r.vec(pre.path_layer) || !r.vec(pre.path_hot) ||
            !r.vec(pre.path_avg_degree) || !r.pod(num_sccs) ||
            !r.vec(pre.dag.layer) || !r.vec(sketch_src) ||
            !r.vec(sketch_dst) || !r.atEnd() ||
            sketch_src.size() != sketch_dst.size()) {
            return std::nullopt;
        }
        pre.merges = merges;
        pre.dag.num_sccs = static_cast<SccId>(num_sccs);
        graph::GraphBuilder builder(static_cast<VertexId>(num_sccs));
        for (std::size_t i = 0; i < sketch_src.size(); ++i) {
            if (sketch_src[i] >= num_sccs || sketch_dst[i] >= num_sccs)
                return std::nullopt;
            builder.addEdge(sketch_src[i], sketch_dst[i]);
        }
        pre.dag.sketch = builder.build();
    }
    if (pre.partition_offsets.size() !=
            static_cast<std::size_t>(m->partitions) + 1 ||
        pre.partition_layer.size() != m->partitions)
        return std::nullopt;
    for (std::size_t q = 0; q + 1 < pre.partition_offsets.size(); ++q) {
        if (pre.partition_offsets[q] > pre.partition_offsets[q + 1])
            return std::nullopt;
    }
    if (pre.partition_offsets.front() != 0)
        return std::nullopt;

    // Partition topo shards, in order; paths must tile [0, numPaths).
    PathId expect_first = 0;
    for (PartitionId q = 0; q < m->partitions; ++q) {
        const ShardEntry *entry =
            m->find("topo.p" + std::to_string(q));
        if (!entry)
            return std::nullopt;
        const MappedFile topo = mapVerified(*entry);
        if (!topo.valid())
            return std::nullopt;
        ByteReader r(topo.data(), topo.size());
        std::uint64_t magic = 0, first_path = 0, num_paths = 0;
        std::vector<std::uint64_t> offsets, fixup_index;
        std::vector<VertexId> vertices;
        std::vector<std::uint32_t> fixup_ordinal;
        if (!r.pod(magic) || magic != kTopoMagic ||
            !r.pod(first_path) || !r.pod(num_paths) ||
            !r.vec(offsets) || !r.vec(vertices) ||
            !r.vec(fixup_index) || !r.vec(fixup_ordinal) ||
            !r.atEnd()) {
            return std::nullopt;
        }
        if (first_path != expect_first ||
            first_path != pre.partition_offsets[q] ||
            num_paths !=
                pre.partition_offsets[q + 1] - pre.partition_offsets[q] ||
            offsets.size() != num_paths + 1 ||
            offsets.back() != vertices.size() ||
            fixup_index.size() != fixup_ordinal.size()) {
            return std::nullopt;
        }
        std::unordered_map<std::uint64_t, std::uint32_t> ordinals;
        ordinals.reserve(fixup_index.size());
        for (std::size_t i = 0; i < fixup_index.size(); ++i)
            ordinals.emplace(fixup_index[i], fixup_ordinal[i]);

        std::uint64_t edge_cursor = 0;
        for (std::uint64_t p = 0; p + 1 < offsets.size(); ++p) {
            const std::uint64_t lo = offsets[p];
            const std::uint64_t hi = offsets[p + 1];
            if (lo >= hi || vertices[lo] >= g.numVertices())
                return std::nullopt;
            pre.paths.beginPath(vertices[lo]);
            for (std::uint64_t i = lo + 1; i < hi; ++i) {
                // Rebind the edge to the *current* graph's id space.
                EdgeId id =
                    firstEdgeId(g, vertices[i - 1], vertices[i]);
                if (id == kInvalidEdge)
                    return std::nullopt;
                const auto fix = ordinals.find(edge_cursor);
                if (fix != ordinals.end()) {
                    id += fix->second;
                    if (id >= g.numEdges() ||
                        g.edgeSource(id) != vertices[i - 1] ||
                        g.edgeTarget(id) != vertices[i])
                        return std::nullopt;
                }
                pre.paths.extend(vertices[i], id);
                ++edge_cursor;
            }
        }
        expect_first += static_cast<PathId>(num_paths);
    }
    if (expect_first != pre.paths.numPaths() ||
        pre.partition_offsets.back() != pre.paths.numPaths())
        return std::nullopt;

    const PathId num_paths = pre.paths.numPaths();
    if (pre.scc_of_path.size() != num_paths ||
        pre.path_layer.size() != num_paths ||
        pre.path_hot.size() != num_paths ||
        pre.path_avg_degree.size() != num_paths ||
        pre.dag.layer.size() != pre.dag.num_sccs)
        return std::nullopt;
    if (!pre.paths.validate(g))
        return std::nullopt;

    // Derived DAG tables: the per-SCC path lists and the giant SCC are
    // rebuilt from scc_of_path rather than stored.
    pre.dag.scc_of_path = pre.scc_of_path;
    pre.dag.paths_in_scc.assign(pre.dag.num_sccs, {});
    for (PathId p = 0; p < num_paths; ++p) {
        if (pre.scc_of_path[p] >= pre.dag.num_sccs)
            return std::nullopt;
        pre.dag.paths_in_scc[pre.scc_of_path[p]].push_back(p);
    }
    std::size_t best = 0;
    pre.dag.giant_scc = kInvalidScc;
    for (SccId s = 0; s < pre.dag.num_sccs; ++s) {
        if (pre.dag.paths_in_scc[s].size() > best) {
            best = pre.dag.paths_in_scc[s].size();
            pre.dag.giant_scc = s;
        }
    }
    return pre;
}

std::optional<LoadedValues>
DurableStore::loadValues(std::uint64_t version)
{
    auto m = readManifest(version);
    if (!m || !m->has_values)
        return std::nullopt;
    const ShardEntry *vv = m->find("vvals");
    if (!vv)
        return std::nullopt;
    const MappedFile vmap = mapVerified(*vv);
    if (!vmap.valid())
        return std::nullopt;

    LoadedValues loaded;
    {
        ByteReader r(vmap.data(), vmap.size());
        std::uint64_t magic = 0;
        if (!r.pod(magic) || magic != kValsMagic ||
            !r.vec(loaded.v_val) || !r.vec(loaded.active) || !r.atEnd())
            return std::nullopt;
    }

    struct Slice
    {
        std::uint64_t first = 0;
        std::vector<Value> values;
    };
    std::vector<Slice> slices;
    std::uint64_t total = 0;
    for (PartitionId q = 0; q < m->partitions; ++q) {
        const ShardEntry *entry =
            m->find("evals.p" + std::to_string(q));
        if (!entry)
            return std::nullopt;
        const MappedFile emap = mapVerified(*entry);
        if (!emap.valid())
            return std::nullopt;
        ByteReader r(emap.data(), emap.size());
        std::uint64_t magic = 0;
        Slice s;
        if (!r.pod(magic) || magic != kValsMagic || !r.pod(s.first) ||
            !r.vec(s.values) || !r.atEnd())
            return std::nullopt;
        total = std::max(total, s.first + s.values.size());
        slices.push_back(std::move(s));
    }
    loaded.e_val.assign(total, Value{});
    std::uint64_t covered = 0;
    for (const Slice &s : slices) {
        if (s.first + s.values.size() > total)
            return std::nullopt;
        std::copy(s.values.begin(), s.values.end(),
                  loaded.e_val.begin() + static_cast<std::ptrdiff_t>(
                                             s.first));
        covered += s.values.size();
    }
    if (covered != total)
        return std::nullopt; // overlapping or gapped slices
    return loaded;
}

bool
DurableStore::verifyManifest(const Manifest &m,
                             const graph::DirectedGraph *g,
                             VerifiedShards *verified)
{
    if (g && (m.vertices != g->numVertices() ||
              m.edges != g->numEdges() ||
              m.graph_checksum != graphContentChecksum(*g)))
        return false;
    for (const auto &entry : m.shards) {
        if (verified &&
            verified->count({entry.file, entry.bytes, entry.checksum}))
            continue;
        if (!mapVerified(entry).valid())
            return false;
        if (verified)
            verified->emplace(entry.file, entry.bytes, entry.checksum);
    }
    return true;
}

bool
DurableStore::verifyVersion(std::uint64_t version,
                            const graph::DirectedGraph *g)
{
    const auto m = readManifest(version);
    return m && verifyManifest(*m, g);
}

std::uint64_t
DurableStore::recoverVersion(const graph::DirectedGraph *g)
{
    auto versions = listVersions();
    std::uint64_t fallbacks = 0;
    for (auto it = versions.rbegin(); it != versions.rend(); ++it) {
        if (verifyVersion(*it, g)) {
            ++stats_.recovers;
            if (trace_) {
                trace_->event(metrics::TraceEventType::StoreRecover, 0,
                              metrics::kTraceNoPartition, 0.0, 0.0, *it,
                              fallbacks);
            }
            return *it;
        }
        ++fallbacks;
        ++stats_.fallbacks;
    }
    return 0;
}

std::optional<std::vector<graph::Edge>>
DurableStore::readDelta(const Manifest &m, VerifiedShards *verified)
{
    const ShardEntry *entry = m.find("delta");
    if (!entry)
        return std::nullopt;
    const MappedFile mapped = mapVerified(*entry);
    if (!mapped.valid())
        return std::nullopt;
    if (verified)
        verified->emplace(entry->file, entry->bytes, entry->checksum);
    ByteReader r(mapped.data(), mapped.size());
    std::uint64_t magic = 0;
    std::vector<VertexId> src, dst;
    std::vector<Value> weight;
    if (!r.pod(magic) || magic != kDeltaMagic || !r.vec(src) ||
        !r.vec(dst) || !r.vec(weight) || !r.atEnd() ||
        src.size() != dst.size() || src.size() != weight.size())
        return std::nullopt;
    std::vector<graph::Edge> edges(src.size());
    for (std::size_t i = 0; i < src.size(); ++i)
        edges[i] = {src[i], dst[i], weight[i]};
    return edges;
}

std::optional<std::vector<graph::Edge>>
DurableStore::loadDelta(std::uint64_t version)
{
    const auto m = readManifest(version);
    if (!m)
        return std::nullopt;
    return readDelta(*m);
}

RecoveredChain
DurableStore::recoverTopologyChain(const graph::DirectedGraph &base)
{
    // One read per manifest, newest first. An unreadable manifest is
    // skipped like a missing one, and value versions never join a
    // topology chain.
    std::vector<Manifest> topology;
    const auto versions = listVersions();
    for (auto it = versions.rbegin(); it != versions.rend(); ++it) {
        auto m = readManifest(*it);
        if (m && !m->has_values)
            topology.push_back(std::move(*m));
    }
    // Children reference their parents' topo shard files, so most
    // entries repeat down the chain; each verifies once.
    VerifiedShards verified;
    RecoveredChain out;

    // Root: the newest topology version whose fingerprint matches the
    // base graph and whose shards verify.
    for (const Manifest &m : topology) {
        if (m.find("delta"))
            continue;
        if (verifyManifest(m, &base, &verified)) {
            out.version = m.version;
            break;
        }
        ++stats_.fallbacks;
    }
    if (out.version == 0)
        return out;

    // Greedily follow delta children: rebuild each child's graph by the
    // deterministic append replay and only advance when the child's
    // fingerprint matches the rebuilt graph and its shards verify. A
    // torn epoch commit (missing shard, no manifest) simply never
    // matches, so the walk stops on the last fully committed epoch.
    const graph::DirectedGraph *cur = &base;
    bool advanced = true;
    while (advanced) {
        advanced = false;
        for (const Manifest &m : topology) {
            if (m.version <= out.version)
                break;
            if (m.parent != out.version)
                continue;
            const auto delta = readDelta(m, &verified);
            if (!delta)
                continue;
            graph::GraphDelta gd = graph::GraphBuilder::append(*cur,
                                                               *delta);
            if (!verifyManifest(m, &gd.graph, &verified)) {
                ++stats_.fallbacks;
                continue;
            }
            out.version = m.version;
            out.graph = std::make_shared<graph::DirectedGraph>(
                std::move(gd.graph));
            cur = out.graph.get();
            ++out.links;
            advanced = true;
            break;
        }
    }

    ++stats_.recovers;
    if (trace_) {
        trace_->event(metrics::TraceEventType::StoreRecover, 0,
                      metrics::kTraceNoPartition, 0.0, 0.0, out.version,
                      out.links);
    }
    return out;
}

GcReport
DurableStore::gcVersions(std::size_t keep_heads)
{
    GcReport rep;
    const auto versions = listVersions();

    // Anchor on the newest fully verifying versions, then pull in every
    // ancestor: children reference parent shard *files*, so the whole
    // reachable lineage must keep its bytes.
    std::unordered_set<std::uint64_t> keep;
    for (auto it = versions.rbegin();
         it != versions.rend() && rep.kept_heads < keep_heads; ++it) {
        if (keep.count(*it))
            continue;
        if (!verifyVersion(*it))
            continue;
        ++rep.kept_heads;
        std::uint64_t v = *it;
        while (v != 0 && !keep.count(v)) {
            keep.insert(v);
            const auto m = readManifest(v);
            v = m ? m->parent : 0;
        }
    }
    if (keep.empty())
        return rep; // nothing verifies: refuse to delete anything
    rep.kept_versions = keep.size();

    // Files any kept manifest references must survive.
    std::unordered_set<std::string> referenced;
    for (const std::uint64_t v : keep) {
        const auto m = readManifest(v);
        if (!m)
            continue;
        for (const ShardEntry &entry : m->shards)
            referenced.insert(entry.file);
    }

    // Phase 1: drop the manifests of unreachable versions. Ordering
    // matters for crash safety — once a manifest is gone its shards are
    // garbage, but never the other way around, so a crash between the
    // phases (or between any two removes) leaves only stray files, never
    // a manifest naming a deleted shard.
    for (const std::uint64_t v : versions) {
        if (keep.count(v))
            continue;
        if (ops_->remove(dir_ + "/" + manifestFile(v))) {
            ++rep.removed_versions;
        } else {
            // The manifest survived the remove: its shards must too.
            const auto m = readManifest(v);
            if (m) {
                for (const ShardEntry &entry : m->shards)
                    referenced.insert(entry.file);
            }
        }
    }

    // Phase 2: drop shard files no surviving manifest references.
    for (const std::string &name : ops_->listDir(dir_)) {
        if (name.size() < 6 ||
            name.substr(name.size() - 6) != ".shard" ||
            referenced.count(name))
            continue;
        const MappedFile mapped = ops_->mapFile(dir_ + "/" + name);
        const std::uint64_t bytes = mapped.valid() ? mapped.size() : 0;
        if (ops_->remove(dir_ + "/" + name)) {
            ++rep.removed_shards;
            rep.removed_bytes += bytes;
        }
    }
    return rep;
}

// --- JobJournal ---

JobJournal::JobJournal(std::string path, FileOps *ops)
    : path_(std::move(path)), ops_(ops ? ops : &RealFileOps::instance())
{
}

std::uint64_t
JobJournal::nextWalId()
{
    if (!wal_id_known_) {
        wal_id_known_ = true;
        // One-time scan past every id already on disk, so a restarted
        // session's fresh records can never collide with (and a later
        // `C` can never accidentally complete) a previous session's
        // still-pending record.
        const MappedFile mapped = ops_->mapFile(path_);
        if (mapped.valid() && mapped.size() > 0) {
            const std::string text(
                reinterpret_cast<const char *>(mapped.data()),
                mapped.size());
            std::istringstream in(text);
            std::string line;
            while (std::getline(in, line)) {
                std::istringstream rec(line);
                std::string op;
                std::uint64_t id = 0;
                if ((rec >> op >> id) && (op == "A" || op == "C"))
                    next_wal_id_ = std::max(next_wal_id_, id + 1);
            }
        }
    }
    return next_wal_id_++;
}

void
JobJournal::healTornTail()
{
    if (tail_checked_)
        return;
    tail_checked_ = true;
    const MappedFile mapped = ops_->mapFile(path_);
    if (!mapped.valid() || mapped.size() == 0)
        return;
    std::size_t keep = mapped.size();
    if (mapped.data()[keep - 1] == '\n')
        return;
    // A crash (or injected fault) mid-append left an unterminated
    // prefix. The record was never acknowledged durable, so dropping
    // it is correct — and appending over it would fuse it with the
    // next record into one garbage line.
    while (keep > 0 && mapped.data()[keep - 1] != '\n')
        --keep;
    ops_->truncateFile(path_, keep);
}

bool
JobJournal::appendAdmit(std::uint64_t job_id, const std::string &spec,
                        int priority, const std::string &tenant,
                        std::uint64_t adopted)
{
    if (adopted != kNoJournalId) {
        // Restart re-admission: the record already survives in the
        // compacted WAL under @p adopted — just bind the new job id.
        wal_id_of_job_[job_id] = adopted;
        return true;
    }
    healTornTail();
    const std::uint64_t wal_id = nextWalId();
    wal_id_of_job_[job_id] = wal_id;
    std::ostringstream line;
    line << "A " << wal_id << " " << priority << " "
         << (tenant.empty() ? "-" : tenant) << " " << spec;
    const bool ok = ops_->appendLine(path_, line.str());
    if (!ok)
        tail_checked_ = false; // the failed append may have torn
    return ok;
}

bool
JobJournal::appendComplete(std::uint64_t job_id)
{
    healTornTail();
    const auto it = wal_id_of_job_.find(job_id);
    const std::uint64_t wal_id =
        it != wal_id_of_job_.end() ? it->second : job_id;
    const bool ok =
        ops_->appendLine(path_, "C " + std::to_string(wal_id));
    if (!ok)
        tail_checked_ = false;
    return ok;
}

std::vector<JobJournal::PendingJob>
JobJournal::replay() const
{
    std::vector<PendingJob> pending;
    const MappedFile mapped = ops_->mapFile(path_);
    if (!mapped.valid() || mapped.size() == 0)
        return pending;
    const std::string text(reinterpret_cast<const char *>(mapped.data()),
                           mapped.size());

    std::vector<std::uint64_t> order;
    std::unordered_map<std::uint64_t, PendingJob> admitted;
    std::unordered_set<std::uint64_t> completed;
    std::size_t cursor = 0;
    while (cursor < text.size()) {
        const auto nl = text.find('\n', cursor);
        if (nl == std::string::npos)
            break; // torn tail: the crash interrupted this append
        const std::string line = text.substr(cursor, nl - cursor);
        cursor = nl + 1;
        std::istringstream in(line);
        std::string op;
        std::uint64_t id = 0;
        if (!(in >> op >> id))
            continue; // malformed record: skip defensively
        if (op == "C") {
            completed.insert(id);
        } else if (op == "A") {
            PendingJob job;
            job.id = id;
            if (!(in >> job.priority >> job.tenant))
                continue;
            if (job.tenant == "-")
                job.tenant.clear();
            std::getline(in, job.spec);
            const auto start = job.spec.find_first_not_of(' ');
            job.spec = start == std::string::npos
                           ? std::string()
                           : job.spec.substr(start);
            if (job.spec.empty())
                continue;
            if (admitted.emplace(id, std::move(job)).second)
                order.push_back(id);
        }
    }
    for (const std::uint64_t id : order) {
        if (!completed.count(id))
            pending.push_back(admitted[id]);
    }
    return pending;
}

bool
JobJournal::compact(const std::vector<PendingJob> &pending)
{
    if (pending.empty())
        return reset();
    std::ostringstream text;
    std::uint64_t max_id = 0;
    for (const auto &p : pending) {
        text << "A " << p.id << " " << p.priority << " "
             << (p.tenant.empty() ? "-" : p.tenant) << " " << p.spec
             << "\n";
        max_id = std::max(max_id, p.id);
    }
    const std::string payload = text.str();
    // Atomic whole-file replace: a crash leaves either the old WAL
    // (same pending set plus completed cruft) or the compacted one —
    // never a state where a durably journaled job is lost.
    if (!ops_->writeFileAtomic(path_, payload.data(), payload.size()))
        return false;
    wal_id_known_ = true;
    next_wal_id_ = std::max(next_wal_id_, max_id + 1);
    tail_checked_ = true; // the rewrite is '\n'-terminated by construction
    return true;
}

bool
JobJournal::reset()
{
    if (!ops_->exists(path_))
        return true;
    return ops_->remove(path_);
}

} // namespace digraph::storage
