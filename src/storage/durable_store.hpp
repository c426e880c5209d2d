/**
 * @file
 * Versioned, partition-sharded durable store (DESIGN.md §16, ROADMAP
 * item 2): the on-disk home of a preprocessing result (the substrate
 * topology) and of per-run value planes, with crash-consistent commits
 * and lineage-based recovery.
 *
 * On-disk layout (one directory per store):
 *
 *   MANIFEST.v<N>.json      one per committed version; JSON listing
 *                           every shard the version is made of (file,
 *                           bytes, FNV-1a checksum), the parent version,
 *                           and the graph fingerprint (vertex/edge
 *                           counts + the snapshot-v2 content checksum)
 *   meta.v<N>.shard         global tables: partition boundaries,
 *                           per-path metadata, the DAG sketch
 *   topo.p<q>.v<N>.shard    partition q's path topology (vertex
 *                           sequences; edge ids are *recomputed* from
 *                           the graph's CSR on load, so a shard's bytes
 *                           stay valid across evolving-graph appends
 *                           that renumber edges)
 *   vvals.v<N>.shard        V_val master array + activation seed
 *   evals.p<q>.v<N>.shard   partition q's E_val slice
 *   jobs.wal                append-only job journal (see JobJournal)
 *
 * Commit protocol: every shard is written temp-file -> flush -> atomic
 * rename (via the FileOps seam), and the manifest is written *last* —
 * the manifest rename is the commit point. A crash mid-commit leaves at
 * worst stray shard files of the unfinished version; every previous
 * version is untouched (shards are immutable once named in a manifest,
 * and child versions reference parent shard *files*, never rewrite
 * them).
 *
 * Incremental commits: a topology commit with a parent reuses the
 * parent's per-partition topo shards for the paths appendPreprocess()
 * carried over verbatim, writing only shards for appended partitions; a
 * value commit writes the shards named in the caller's dirty-partition
 * list (PR 4's `Preprocessed::dirty_partitions` ledger / the engine's
 * checkpoint journal) and references the parent's files for the rest.
 *
 * Recovery: recoverVersion() walks the manifests newest-first and
 * returns the first whose shards all exist with matching sizes and
 * checksums (and whose graph fingerprint matches, when a graph is
 * given) — torn or corrupt newest versions are skipped, falling back
 * down the lineage. Loads are mmap-backed per shard with fully
 * bounds-checked deserialization, so a short or corrupt file can never
 * crash the reader.
 */

#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "graph/digraph.hpp"
#include "partition/preprocess.hpp"
#include "storage/file_ops.hpp"

namespace digraph::metrics {
class TraceSink;
} // namespace digraph::metrics

namespace digraph::storage {

/** FNV-1a over a byte range (shard checksums; same constants as the
 *  snapshot-v2 graph fingerprint). */
std::uint64_t fnv1a(const void *data, std::size_t bytes);

/** One shard named by a manifest. */
struct ShardEntry
{
    std::string name; ///< logical name ("meta", "topo.p3", ...)
    std::string file; ///< file name inside the store dir
    std::uint64_t bytes = 0;
    std::uint64_t checksum = 0; ///< FNV-1a over the file bytes
};

/** Parsed manifest of one committed version. */
struct Manifest
{
    std::uint64_t version = 0;
    std::uint64_t parent = 0; ///< 0 = no parent
    std::uint64_t vertices = 0;
    std::uint64_t edges = 0;
    std::uint64_t graph_checksum = 0;
    std::uint64_t partitions = 0;
    bool has_values = false;
    std::vector<ShardEntry> shards;

    /** Entry of logical shard @p name, or nullptr. */
    const ShardEntry *find(const std::string &name) const;
};

/** Cumulative store activity (tests, CLI reporting). */
struct StoreStats
{
    std::uint64_t commits = 0;  ///< successful commits
    std::uint64_t recovers = 0; ///< successful recoverVersion() calls
    /** Versions skipped because a shard was missing/torn/corrupt. */
    std::uint64_t fallbacks = 0;
    std::uint64_t shards_written = 0;
    /** Parent shard files referenced instead of rewritten. */
    std::uint64_t shards_reused = 0;
    std::uint64_t bytes_written = 0;
};

/** A loaded value plane (commitValues() round trip). */
struct LoadedValues
{
    std::vector<Value> v_val;
    std::vector<Value> e_val;
    /** Activation seed saved with the plane (may be empty). */
    std::vector<VertexId> active;
};

/**
 * Result of recoverTopologyChain(): the deepest topology version whose
 * whole lineage — root fingerprint plus every delta link — verified.
 */
struct RecoveredChain
{
    /** Recovered topology version (0 = nothing recoverable). */
    std::uint64_t version = 0;
    /** The graph of @p version, rebuilt by replaying the delta shards on
     *  the base graph; null when @p version is a root (its graph IS the
     *  base graph). */
    std::shared_ptr<graph::DirectedGraph> graph;
    /** Delta links applied on top of the root (0 = landed on a root). */
    std::size_t links = 0;
};

/** Report of one gcVersions() sweep. */
struct GcReport
{
    /** Versions retained (the heads plus every ancestor). */
    std::uint64_t kept_versions = 0;
    /** Lineage heads the sweep anchored on. */
    std::uint64_t kept_heads = 0;
    /** Manifests removed. */
    std::uint64_t removed_versions = 0;
    /** Shard files removed (unreferenced by any kept manifest). */
    std::uint64_t removed_shards = 0;
    /** Bytes the removed shard files held. */
    std::uint64_t removed_bytes = 0;
};

/**
 * The versioned store over one directory. Not thread-safe; callers
 * serialize access (the engine commits only between dispatches, the
 * CLI from its main thread).
 */
class DurableStore
{
  public:
    /** Bind to @p dir (created on first commit). @p ops defaults to
     *  RealFileOps::instance(); inject FaultyFileOps for crash tests. */
    explicit DurableStore(std::string dir, FileOps *ops = nullptr);

    /** Attach (or detach) a sink receiving store_commit/store_recover
     *  events. */
    void setTrace(metrics::TraceSink *trace) { trace_ = trace; }

    /** The store directory. */
    const std::string &dir() const { return dir_; }

    /** Path of the job journal inside this store. */
    std::string journalPath() const { return dir_ + "/jobs.wal"; }

    /**
     * Commit the topology of @p pre (computed for @p g) as a new
     * version. With @p parent nonzero and @p pre marked incremental,
     * the parent's per-partition topo shards are reused for carried-over
     * partitions and only appended partitions are written. With @p delta
     * non-null the accepted batch edges are stored as a delta shard, so
     * recoverTopologyChain() can rebuild this version's graph from the
     * parent's by a deterministic GraphBuilder::append replay (the
     * on-disk topology-version lineage of live-graph epochs).
     * @return the new version id, or 0 on failure (no manifest written;
     *         at worst stray shard files remain).
     */
    std::uint64_t commitTopology(const graph::DirectedGraph &g,
                                 const partition::Preprocessed &pre,
                                 std::uint64_t parent = 0,
                                 const std::vector<graph::Edge> *delta =
                                     nullptr);

    /** Load the delta shard of @p version (the batch edges its graph
     *  adds over its parent's), or std::nullopt when the version has no
     *  delta shard or it fails verification. */
    std::optional<std::vector<graph::Edge>>
    loadDelta(std::uint64_t version);

    /**
     * Recover the deepest live-graph epoch: find the newest topology
     * version whose fingerprint matches @p base and whose shards verify
     * (the chain root), then greedily follow children that carry a
     * delta shard — replaying each delta through GraphBuilder::append
     * and verifying the child's fingerprint against the rebuilt graph —
     * until no child verifies. Torn or corrupt tips are simply not
     * reached, so a SIGKILL mid-epoch-commit lands on the last fully
     * committed epoch.
     */
    RecoveredChain recoverTopologyChain(const graph::DirectedGraph &base);

    /**
     * Compact the store: anchor on the newest @p keep_heads fully
     * verifying versions, retain them plus every ancestor reachable
     * through parent pointers, and delete everything else — manifests
     * first, then shard files no kept manifest references, so a crash
     * mid-sweep can never leave a surviving manifest pointing at a
     * deleted shard. When no version verifies, nothing is deleted.
     * The job journal is never touched.
     */
    GcReport gcVersions(std::size_t keep_heads = 1);

    /**
     * Commit a value plane on top of version @p parent (which supplies
     * the topology shards): V_val (+ @p active seed) and per-partition
     * E_val slices. With @p dirty non-null only those partitions' E_val
     * shards are written; the rest reference the parent's files (the
     * parent must then hold values for them — the first flush passes
     * null to write everything).
     * @pre v_val/e_val sized for @p pre (checked; 0 on mismatch).
     * @return the new version id, or 0 on failure.
     */
    std::uint64_t
    commitValues(const graph::DirectedGraph &g,
                 const partition::Preprocessed &pre,
                 std::span<const Value> v_val,
                 std::span<const Value> e_val,
                 const std::vector<VertexId> &active, std::uint64_t parent,
                 const std::vector<PartitionId> *dirty = nullptr);

    /**
     * Load version @p version's topology, verifying the manifest's
     * graph fingerprint against @p g and rebuilding edge ids from g's
     * CSR. Timings are zero (nothing was computed).
     * @return std::nullopt when the version is missing, corrupt, or was
     *         committed for a different graph.
     */
    std::optional<partition::Preprocessed>
    loadTopology(std::uint64_t version, const graph::DirectedGraph &g);

    /** Load version @p version's value plane (has_values versions
     *  only). */
    std::optional<LoadedValues> loadValues(std::uint64_t version);

    /**
     * Newest version whose shards all verify (existence, size, FNV-1a
     * checksum) and whose fingerprint matches @p g when given — walking
     * past torn/corrupt versions down the lineage.
     * @return the version id, or 0 when nothing recoverable exists.
     */
    std::uint64_t recoverVersion(const graph::DirectedGraph *g = nullptr);

    /** Whether @p version's manifest parses and every shard verifies
     *  (+ fingerprint check against @p g when given). */
    bool verifyVersion(std::uint64_t version,
                       const graph::DirectedGraph *g = nullptr);

    /** Parse @p version's manifest (no shard verification). */
    std::optional<Manifest> readManifest(std::uint64_t version) const;

    /** All versions with a manifest file, ascending. */
    std::vector<std::uint64_t> listVersions() const;

    /** Newest version with a manifest file (0 when empty/missing). */
    std::uint64_t newestVersion() const;

    /** Cumulative activity counters. */
    const StoreStats &stats() const { return stats_; }

  private:
    std::string shardFile(const std::string &name,
                          std::uint64_t version) const;
    std::string manifestFile(std::uint64_t version) const;
    /** Serialize-checksum-write one shard; updates stats. */
    bool writeShard(const std::string &name, std::uint64_t version,
                    const std::vector<std::uint8_t> &payload,
                    ShardEntry &entry);
    /** Map + verify (size, checksum) one shard of @p m. */
    MappedFile mapVerified(const ShardEntry &entry);
    bool writeManifest(const Manifest &m);
    void emitCommit(std::uint64_t version, std::uint64_t shards_written);

    std::string dir_;
    FileOps *ops_;
    metrics::TraceSink *trace_ = nullptr;
    StoreStats stats_;
};

/** "No adopted WAL record" sentinel for JobJournal::appendAdmit /
 *  JobRequest::journal_id. */
inline constexpr std::uint64_t kNoJournalId =
    ~static_cast<std::uint64_t>(0);

/**
 * Append-only write-ahead journal of GraphService jobs, stored beside
 * the versioned shards (jobs.wal).
 *
 * Records are single lines: `A <id> <priority> <tenant> <spec>` when a
 * job is admitted, `C <id>` when it completes. Record ids are
 * journal-assigned (monotonic past every id already in the file, so a
 * restarted service's records can never collide with a previous
 * session's); the journal maps each caller job id to its WAL id so
 * completions pair up. replay() returns the admitted-minus-completed
 * set in admission order — the jobs a restarted service must resume. A
 * torn tail (crash mid-append leaves an unterminated last line) is
 * discarded by replay() and truncated away before the next append, so
 * it can never fuse with a later record; a *lost* completion record
 * (job finished between the crash and its `C` append) merely re-runs
 * that job, which is idempotent — engine results are deterministic.
 *
 * Restart protocol (no loss window): the restarting service calls
 * replay(), then compact(pending) — an atomic rewrite of the WAL to
 * exactly the pending set, preserving their WAL ids — and re-admits
 * each pending job with its WAL id as the adoption token
 * (appendAdmit's @p adopted). An adopted admission writes nothing (its
 * record already survives in the compacted WAL) and only binds the new
 * job id to the old record, so a crash at ANY point of the restart
 * replays the same pending set; never reset() a journal that still
 * holds un-resumed jobs.
 */
class JobJournal
{
  public:
    explicit JobJournal(std::string path, FileOps *ops = nullptr);

    /** One journaled-but-not-completed job. */
    struct PendingJob
    {
        std::uint64_t id = 0; ///< WAL record id (adoption token)
        int priority = 0;
        std::string tenant;
        std::string spec;
    };

    /**
     * Journal an admission (flushed before returning). With @p adopted
     * == kNoJournalId a fresh `A` record is appended under a new WAL
     * id; otherwise nothing is written and @p job_id is bound to the
     * existing WAL record @p adopted (restart re-admission of a
     * compacted pending job).
     */
    bool appendAdmit(std::uint64_t job_id, const std::string &spec,
                     int priority, const std::string &tenant,
                     std::uint64_t adopted = kNoJournalId);

    /** Journal the completion of @p job_id (resolved to its WAL id). */
    bool appendComplete(std::uint64_t job_id);

    /** Admitted jobs without a completion record, in admission order. */
    std::vector<PendingJob> replay() const;

    /**
     * Atomically rewrite the WAL to exactly @p pending (their ids kept
     * verbatim), dropping completed and torn records; an empty set
     * removes the file. Future appends use ids past the kept maximum.
     * On failure the old WAL is left untouched (still replayable).
     */
    bool compact(const std::vector<PendingJob> &pending);

    /** Remove the journal file (only when nothing is pending — a
     *  restart must use compact() + adoption instead, see above). */
    bool reset();

    const std::string &path() const { return path_; }

  private:
    /** Next fresh WAL id (scans the file past existing ids once). */
    std::uint64_t nextWalId();
    /** Truncate an unterminated last line left by a torn append, so it
     *  cannot concatenate with the record about to be written. */
    void healTornTail();

    std::string path_;
    FileOps *ops_;
    /** WAL record id each live job id was journaled under. */
    std::unordered_map<std::uint64_t, std::uint64_t> wal_id_of_job_;
    std::uint64_t next_wal_id_ = 0;
    bool wal_id_known_ = false;
    /** Tail verified '\n'-terminated; re-armed after a failed append. */
    bool tail_checked_ = false;
};

} // namespace digraph::storage
