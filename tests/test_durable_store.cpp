/**
 * @file
 * Durable-store tests (DESIGN.md §16): crash-consistent versioned
 * commits, lineage recovery with fallback past corrupted versions, the
 * FileOps fault-injection matrix, warm substrate starts that skip
 * decomposition, epoch-chain recovery checked against a reference walk
 * and a read budget, engine checkpoint flush-through with
 * restart-from-disk equivalence, and job-journal replay.
 */

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algorithms/factory.hpp"
#include "algorithms/sssp.hpp"
#include "engine/digraph_engine.hpp"
#include "engine/graph_service.hpp"
#include "engine/substrate.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "metrics/trace.hpp"
#include "partition/preprocess.hpp"
#include "storage/durable_store.hpp"
#include "storage/file_ops.hpp"

namespace digraph::storage {
namespace {

graph::DirectedGraph
testGraph(std::uint64_t seed, VertexId n = 600, EdgeId m = 3600)
{
    graph::GeneratorConfig c;
    c.num_vertices = n;
    c.num_edges = m;
    c.scc_core_fraction = 0.4;
    c.seed = seed;
    return graph::generate(c);
}

/** Summed per-path edge counts (the E_val extent). */
std::uint64_t
eValSize(const partition::Preprocessed &pre)
{
    std::uint64_t total = 0;
    for (PathId p = 0; p < pre.paths.numPaths(); ++p)
        total += pre.paths.pathLength(p);
    return total;
}

void
expectSamePreprocessed(const partition::Preprocessed &got,
                       const partition::Preprocessed &want)
{
    ASSERT_EQ(got.paths.numPaths(), want.paths.numPaths());
    for (PathId p = 0; p < want.paths.numPaths(); ++p) {
        ASSERT_EQ(got.paths.pathLength(p), want.paths.pathLength(p))
            << "path " << p;
        const auto gv = got.paths.pathVertices(p);
        const auto wv = want.paths.pathVertices(p);
        ASSERT_TRUE(std::equal(gv.begin(), gv.end(), wv.begin(),
                               wv.end()))
            << "path " << p << " vertices";
        const auto ge = got.paths.pathEdges(p);
        const auto we = want.paths.pathEdges(p);
        ASSERT_TRUE(std::equal(ge.begin(), ge.end(), we.begin(),
                               we.end()))
            << "path " << p << " edges";
    }
    EXPECT_EQ(got.partition_offsets, want.partition_offsets);
    EXPECT_EQ(got.partition_layer, want.partition_layer);
    EXPECT_EQ(got.scc_of_path, want.scc_of_path);
    EXPECT_EQ(got.path_layer, want.path_layer);
    EXPECT_EQ(got.path_hot, want.path_hot);
    EXPECT_EQ(got.dag.num_sccs, want.dag.num_sccs);
    EXPECT_EQ(got.dag.layer, want.dag.layer);
    EXPECT_EQ(got.dag.sketch.numEdges(), want.dag.sketch.numEdges());
    // Rebuilt on load rather than stored.
    EXPECT_EQ(got.dag.paths_in_scc, want.dag.paths_in_scc);
    EXPECT_EQ(got.dag.giant_scc, want.dag.giant_scc);
    EXPECT_EQ(got.merges, want.merges);
}

void
expectIdenticalRuns(const metrics::RunReport &a,
                    const metrics::RunReport &b, const std::string &tag)
{
    ASSERT_EQ(a.final_state.size(), b.final_state.size()) << tag;
    for (std::size_t v = 0; v < a.final_state.size(); ++v)
        ASSERT_EQ(a.final_state[v], b.final_state[v])
            << tag << ": vertex " << v;
    EXPECT_EQ(a.vertex_updates, b.vertex_updates) << tag;
    EXPECT_EQ(a.edge_processings, b.edge_processings) << tag;
    EXPECT_EQ(a.rounds, b.rounds) << tag;
    EXPECT_EQ(a.sim_cycles, b.sim_cycles) << tag;
}

/** One committed topology version of a test epoch chain. */
struct Epoch
{
    std::uint64_t version = 0;
    std::shared_ptr<const graph::DirectedGraph> graph;
    partition::Preprocessed pre;
};

/** A chain walk's outcome, with the fallbacks it counted. */
struct WalkResult
{
    std::uint64_t version = 0;
    std::size_t links = 0;
    std::uint64_t fallbacks = 0;
    std::shared_ptr<graph::DirectedGraph> graph;
};

/**
 * The epoch-chain walk built from the public API alone: per link it
 * rescans every newer manifest and verifies every shard of each
 * candidate anew. Same rule as recoverTopologyChain: the
 * newest verifying root, then repeatedly the newest delta child whose
 * replayed graph matches its fingerprint and whose shards verify.
 */
WalkResult
referenceWalk(DurableStore &store, const graph::DirectedGraph &base)
{
    WalkResult out;
    const auto versions = store.listVersions();
    for (auto it = versions.rbegin(); it != versions.rend(); ++it) {
        const auto m = store.readManifest(*it);
        if (!m || m->has_values || m->find("delta"))
            continue;
        if (store.verifyVersion(*it, &base)) {
            out.version = *it;
            break;
        }
        ++out.fallbacks;
    }
    if (out.version == 0)
        return out;
    const graph::DirectedGraph *cur = &base;
    for (bool advanced = true; advanced;) {
        advanced = false;
        for (auto it = versions.rbegin();
             it != versions.rend() && *it > out.version; ++it) {
            const auto m = store.readManifest(*it);
            if (!m || m->has_values || m->parent != out.version ||
                !m->find("delta"))
                continue;
            const auto delta = store.loadDelta(*it);
            if (!delta)
                continue;
            auto gd = graph::GraphBuilder::append(*cur, *delta);
            if (!store.verifyVersion(*it, &gd.graph)) {
                ++out.fallbacks;
                continue;
            }
            out.version = *it;
            out.graph =
                std::make_shared<graph::DirectedGraph>(std::move(gd.graph));
            cur = out.graph.get();
            ++out.links;
            advanced = true;
            break;
        }
    }
    return out;
}

class DurableStoreTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = std::filesystem::temp_directory_path() /
               ("digraph_store_" + std::to_string(::getpid()) + "_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name());
        std::filesystem::remove_all(dir_);
        g_ = testGraph(71);
        // Small partition budget: the sharding paths (per-partition
        // topo/evals shards, dirty lists) need several partitions.
        popts_.partition.edges_per_partition = 600;
        pre_ = partition::preprocess(g_, popts_);
    }

    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::string store() const { return dir_.string(); }

    /** Flip one byte in the middle of a store file. */
    void
    corrupt(const std::string &file)
    {
        const auto path = dir_ / file;
        std::fstream f(path,
                       std::ios::in | std::ios::out | std::ios::binary);
        ASSERT_TRUE(f.is_open()) << file;
        f.seekg(0, std::ios::end);
        const auto size = static_cast<std::streamoff>(f.tellg());
        ASSERT_GT(size, 0) << file;
        f.seekg(size / 2);
        char byte = 0;
        f.read(&byte, 1);
        byte = static_cast<char>(byte ^ 0x5a);
        f.seekp(size / 2);
        f.write(&byte, 1);
    }

    /** Commit g_/pre_ as a root topology version. */
    Epoch
    commitRoot(DurableStore &store)
    {
        Epoch root;
        root.version = store.commitTopology(g_, pre_);
        EXPECT_NE(root.version, 0u);
        root.graph = std::make_shared<const graph::DirectedGraph>(g_);
        root.pre = pre_;
        return root;
    }

    /** Append @p edges random edges (seeded by @p seed) to @p parent's
     *  graph and commit the result as its delta child. */
    Epoch
    commitChild(DurableStore &store, const Epoch &parent,
                std::uint64_t seed, std::size_t edges = 8)
    {
        std::vector<graph::Edge> batch;
        SplitMix64 rng(seed);
        const VertexId n = parent.graph->numVertices();
        while (batch.size() < edges) {
            const auto s = static_cast<VertexId>(rng.nextBounded(n + 4));
            const auto d = static_cast<VertexId>(rng.nextBounded(n + 4));
            if (s != d)
                batch.push_back({s, d, 1.0});
        }
        auto delta = graph::GraphBuilder::append(*parent.graph, batch);
        EXPECT_FALSE(delta.fresh.empty());
        partition::Preprocessed prev = parent.pre;
        prev.sorted_adjacency = nullptr; // the parent keeps its cache
        Epoch child;
        child.pre = partition::appendPreprocess(std::move(prev),
                                                delta.graph, delta, popts_);
        child.version = store.commitTopology(delta.graph, child.pre,
                                             parent.version, &delta.fresh);
        EXPECT_NE(child.version, 0u);
        child.graph = std::make_shared<const graph::DirectedGraph>(
            std::move(delta.graph));
        return child;
    }

    /** A root plus @p epochs - 1 delta links, each on the previous. */
    std::vector<Epoch>
    commitChain(DurableStore &store, std::size_t epochs)
    {
        std::vector<Epoch> chain = {commitRoot(store)};
        while (chain.size() < epochs)
            chain.push_back(commitChild(store, chain.back(), chain.size()));
        return chain;
    }

    /** recoverTopologyChain on a fresh store agrees with referenceWalk
     *  (version, links, fallbacks, recovered graph) and lands on
     *  @p want after @p want_fallbacks fallbacks. */
    void
    expectRecoveryMatchesReference(const Epoch &want,
                                   std::uint64_t want_fallbacks)
    {
        DurableStore reference(this->store());
        const WalkResult ref = referenceWalk(reference, g_);
        DurableStore store(this->store());
        const RecoveredChain got = store.recoverTopologyChain(g_);

        EXPECT_EQ(ref.version, want.version);
        EXPECT_EQ(ref.fallbacks, want_fallbacks);
        EXPECT_EQ(got.version, ref.version);
        EXPECT_EQ(got.links, ref.links);
        EXPECT_EQ(store.stats().fallbacks, ref.fallbacks);
        ASSERT_EQ(got.graph == nullptr, ref.graph == nullptr);
        const graph::DirectedGraph &recovered =
            got.graph ? *got.graph : g_;
        EXPECT_EQ(recovered.numEdges(), want.graph->numEdges());
        EXPECT_TRUE(reference.verifyVersion(ref.version, &recovered));
    }

    std::filesystem::path dir_;
    graph::DirectedGraph g_;
    partition::PreprocessOptions popts_;
    partition::Preprocessed pre_;
};

// ------------------------------------------------- topology round trip

TEST_F(DurableStoreTest, TopologyRoundTripIsBitIdentical)
{
    DurableStore store(this->store());
    const std::uint64_t v = store.commitTopology(g_, pre_);
    ASSERT_NE(v, 0u);
    EXPECT_EQ(store.stats().commits, 1u);

    auto loaded = store.loadTopology(v, g_);
    ASSERT_TRUE(loaded.has_value());
    expectSamePreprocessed(*loaded, pre_);
    // Nothing was computed: the decomposition pipeline never ran.
    EXPECT_EQ(loaded->timings.total(), 0.0);
}

TEST_F(DurableStoreTest, LoadTopologyRejectsDifferentGraph)
{
    DurableStore store(this->store());
    const std::uint64_t v = store.commitTopology(g_, pre_);
    ASSERT_NE(v, 0u);

    const auto other = testGraph(72);
    EXPECT_FALSE(store.loadTopology(v, other).has_value());
    EXPECT_EQ(store.recoverVersion(&other), 0u);
    EXPECT_EQ(store.recoverVersion(&g_), v);
}

TEST_F(DurableStoreTest, LoadTopologyRejectsSameShapeDifferentGraph)
{
    DurableStore store(this->store());
    const std::uint64_t v = store.commitTopology(g_, pre_);
    ASSERT_NE(v, 0u);

    // Same vertex and edge counts, one edge weight changed: only the
    // manifest's content checksum tells the two graphs apart.
    graph::GraphBuilder b(g_.numVertices());
    b.setDeduplicate(false);
    b.setRemoveSelfLoops(false);
    for (EdgeId e = 0; e < g_.numEdges(); ++e) {
        const Value w = e == 0 ? g_.edgeWeight(e) + 1.0 : g_.edgeWeight(e);
        b.addEdge(g_.edgeSource(e), g_.edgeTarget(e), w);
    }
    const auto twin = b.build();
    ASSERT_EQ(twin.numVertices(), g_.numVertices());
    ASSERT_EQ(twin.numEdges(), g_.numEdges());
    EXPECT_FALSE(store.loadTopology(v, twin).has_value());
    EXPECT_EQ(store.recoverVersion(&twin), 0u);
}

TEST_F(DurableStoreTest, EngineRunsIdenticallyFromLoadedTopology)
{
    DurableStore store(this->store());
    ASSERT_NE(store.commitTopology(g_, pre_), 0u);

    engine::EngineOptions opts;
    const auto algo = std::make_shared<algorithms::Sssp>(0);

    engine::DiGraphEngine cold(
        g_, engine::EngineSubstrate::build(g_, pre_), opts);
    const auto cold_report = cold.run(*algo);

    auto sub = engine::EngineSubstrate::openFrom(store, g_);
    ASSERT_NE(sub, nullptr);
    engine::DiGraphEngine warm(g_, sub, opts);
    const auto warm_report = warm.run(*algo);

    expectIdenticalRuns(cold_report, warm_report, "sssp warm-vs-cold");
}

TEST_F(DurableStoreTest, WarmOpenFromSkipsDecompositionAndTraces)
{
    metrics::TraceSink sink;
    DurableStore store(this->store());
    store.setTrace(&sink);
    ASSERT_NE(store.commitTopology(g_, pre_), 0u);

    auto sub = engine::EngineSubstrate::openFrom(store, g_);
    ASSERT_NE(sub, nullptr);
    EXPECT_EQ(sub->pre.timings.total(), 0.0);
    EXPECT_EQ(store.stats().recovers, 1u);

    bool saw_commit = false, saw_recover = false;
    for (const auto &e : sink.events()) {
        saw_commit |= e.type == metrics::TraceEventType::StoreCommit;
        saw_recover |= e.type == metrics::TraceEventType::StoreRecover;
    }
    EXPECT_TRUE(saw_commit);
    EXPECT_TRUE(saw_recover);
}

// ------------------------------------------- incremental topo commits

TEST_F(DurableStoreTest, IncrementalTopologyCommitReusesParentShards)
{
    DurableStore store(this->store());
    const std::uint64_t v1 = store.commitTopology(g_, pre_);
    ASSERT_NE(v1, 0u);

    // Append a batch; appendPreprocess keeps carried-over partitions
    // verbatim, so their topo shards are referenced, not rewritten.
    std::vector<graph::Edge> batch;
    SplitMix64 rng(7);
    while (batch.size() < 400) {
        const auto s = static_cast<VertexId>(
            rng.nextBounded(g_.numVertices() + 40));
        const auto d = static_cast<VertexId>(
            rng.nextBounded(g_.numVertices() + 40));
        if (s != d)
            batch.push_back({s, d, 1.0});
    }
    const auto delta = graph::GraphBuilder::append(g_, batch);
    auto pre2 = partition::appendPreprocess(
        partition::Preprocessed(pre_), delta.graph, delta, popts_);
    ASSERT_TRUE(pre2.incremental);

    const auto before = store.stats();
    const std::uint64_t v2 =
        store.commitTopology(delta.graph, pre2, v1);
    ASSERT_NE(v2, 0u);
    EXPECT_GT(store.stats().shards_reused, before.shards_reused);

    auto loaded = store.loadTopology(v2, delta.graph);
    ASSERT_TRUE(loaded.has_value());
    expectSamePreprocessed(*loaded, pre2);
    // v1 remains loadable for the original graph: immutable lineage.
    EXPECT_TRUE(store.loadTopology(v1, g_).has_value());
}

// ------------------------------------------------- value-plane commits

TEST_F(DurableStoreTest, ValuesRoundTripExactly)
{
    DurableStore store(this->store());
    const std::uint64_t topo = store.commitTopology(g_, pre_);
    ASSERT_NE(topo, 0u);

    std::vector<Value> v_val(g_.numVertices());
    std::iota(v_val.begin(), v_val.end(), 0.25);
    std::vector<Value> e_val(eValSize(pre_));
    std::iota(e_val.begin(), e_val.end(), 1000.5);
    const std::vector<VertexId> active = {1, 5, 9};

    const std::uint64_t v =
        store.commitValues(g_, pre_, v_val, e_val, active, topo);
    ASSERT_NE(v, 0u);

    const auto loaded = store.loadValues(v);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->v_val, v_val);
    EXPECT_EQ(loaded->e_val, e_val);
    EXPECT_EQ(loaded->active, active);

    // The value version also serves topology loads (it inherits the
    // parent's meta/topo shard entries).
    EXPECT_TRUE(store.loadTopology(v, g_).has_value());
}

TEST_F(DurableStoreTest, DirtyValueCommitWritesOnlyDirtyPartitions)
{
    DurableStore store(this->store());
    const std::uint64_t topo = store.commitTopology(g_, pre_);
    ASSERT_NE(topo, 0u);

    std::vector<Value> v_val(g_.numVertices(), 1.0);
    std::vector<Value> e_val(eValSize(pre_), 2.0);
    const std::uint64_t full =
        store.commitValues(g_, pre_, v_val, e_val, {}, topo);
    ASSERT_NE(full, 0u);

    // Touch only partition 0's slice; commit with a one-entry dirty
    // list chained on the full flush.
    ASSERT_GE(pre_.numPartitions(), 2u);
    e_val[0] = 99.0;
    v_val[3] = 42.0;
    const std::vector<PartitionId> dirty = {0};
    const auto before = store.stats();
    const std::uint64_t incr = store.commitValues(
        g_, pre_, v_val, e_val, {}, full, &dirty);
    ASSERT_NE(incr, 0u);

    // vvals + exactly one evals shard were written; every clean
    // partition's shard (and all topology) was referenced.
    EXPECT_EQ(store.stats().shards_written - before.shards_written, 2u);
    EXPECT_GE(store.stats().shards_reused - before.shards_reused,
              static_cast<std::uint64_t>(pre_.numPartitions() - 1));

    const auto loaded = store.loadValues(incr);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->v_val, v_val);
    EXPECT_EQ(loaded->e_val, e_val);

    // The parent version still reads back its own (older) plane.
    const auto parent = store.loadValues(full);
    ASSERT_TRUE(parent.has_value());
    EXPECT_EQ(parent->e_val[0], 2.0);
    EXPECT_EQ(parent->v_val[3], 1.0);
}

TEST_F(DurableStoreTest, CommitValuesRejectsMismatchedSizes)
{
    DurableStore store(this->store());
    const std::uint64_t topo = store.commitTopology(g_, pre_);
    ASSERT_NE(topo, 0u);

    std::vector<Value> v_val(g_.numVertices(), 0.0);
    std::vector<Value> e_val(eValSize(pre_), 0.0);
    EXPECT_EQ(store.commitValues(g_, pre_, v_val, e_val, {}, 0), 0u);
    std::vector<Value> short_v(g_.numVertices() - 1, 0.0);
    EXPECT_EQ(store.commitValues(g_, pre_, short_v, e_val, {}, topo),
              0u);
    std::vector<Value> short_e(e_val.size() - 1, 0.0);
    EXPECT_EQ(store.commitValues(g_, pre_, v_val, short_e, {}, topo),
              0u);
}

// ------------------------------------------------ fault-plan matrix

TEST_F(DurableStoreTest, FailedWriteAbortsCommitAndKeepsParent)
{
    // First a clean commit through the real ops.
    {
        DurableStore clean(this->store());
        ASSERT_NE(clean.commitTopology(g_, pre_), 0u);
    }
    // A second commit where the Nth shard write dies must return 0 and
    // leave version 1 fully recoverable — for every N up to the whole
    // commit (meta + one shard per partition + the manifest).
    const long writes =
        static_cast<long>(2 + pre_.numPartitions());
    for (long n = 0; n < writes; ++n) {
        FileFaultPlan plan;
        plan.fail_write_at = n;
        FaultyFileOps ops(plan);
        DurableStore store(this->store(), &ops);
        EXPECT_EQ(store.commitTopology(g_, pre_), 0u) << "fail at " << n;
        DurableStore check(this->store());
        EXPECT_EQ(check.recoverVersion(&g_), 1u) << "fail at " << n;
    }
}

TEST_F(DurableStoreTest, TornManifestFallsBackOneVersion)
{
    {
        DurableStore clean(this->store());
        ASSERT_NE(clean.commitTopology(g_, pre_), 0u);
    }
    // Tear the last write of the next commit — the manifest. The commit
    // reports failure AND a truncated manifest file lands under the
    // final name (torn writeback); recovery must skip it.
    FileFaultPlan plan;
    plan.torn_write_at = static_cast<long>(1 + pre_.numPartitions());
    FaultyFileOps ops(plan);
    DurableStore store(this->store(), &ops);
    EXPECT_EQ(store.commitTopology(g_, pre_), 0u);

    DurableStore check(this->store());
    EXPECT_EQ(check.recoverVersion(&g_), 1u);
    EXPECT_GE(check.stats().fallbacks, 1u);
}

TEST_F(DurableStoreTest, ShortReadsNeverCrashRecovery)
{
    {
        DurableStore clean(this->store());
        ASSERT_NE(clean.commitTopology(g_, pre_), 0u);
    }
    // Truncate every Nth mapping in turn; recovery either still proves
    // version 1 (the short read hit an unused file) or returns 0 —
    // never crashes, never returns a version that then fails to load.
    for (long n = 0; n < 8; ++n) {
        FileFaultPlan plan;
        plan.short_read_at = n;
        FaultyFileOps ops(plan);
        DurableStore store(this->store(), &ops);
        const std::uint64_t v = store.recoverVersion(&g_);
        if (v != 0) {
            EXPECT_EQ(v, 1u) << "short read at " << n;
        }
    }
}

// ------------------------------------------------- recovery edge cases

TEST_F(DurableStoreTest, EmptyStoreRecoversToNothing)
{
    DurableStore store(this->store());
    EXPECT_EQ(store.recoverVersion(&g_), 0u);
    EXPECT_EQ(store.newestVersion(), 0u);
    EXPECT_FALSE(store.loadTopology(1, g_).has_value());
    EXPECT_EQ(engine::EngineSubstrate::openFrom(store, g_), nullptr);
}

TEST_F(DurableStoreTest, MissingShardFallsBackDownTheLineage)
{
    DurableStore store(this->store());
    const std::uint64_t v1 = store.commitTopology(g_, pre_);
    ASSERT_NE(v1, 0u);
    std::vector<Value> v_val(g_.numVertices(), 1.0);
    std::vector<Value> e_val(eValSize(pre_), 2.0);
    const std::uint64_t v2 =
        store.commitValues(g_, pre_, v_val, e_val, {}, v1);
    ASSERT_NE(v2, 0u);

    // Remove the newest version's vvals shard: v2's manifest is intact
    // but a named shard is gone -> recovery lands on v1.
    std::filesystem::remove(dir_ /
                            ("vvals.v" + std::to_string(v2) + ".shard"));
    DurableStore check(this->store());
    EXPECT_EQ(check.recoverVersion(&g_), v1);
    EXPECT_EQ(check.stats().fallbacks, 1u);
}

TEST_F(DurableStoreTest, SingleCorruptPartitionFallsBackExactlyOne)
{
    DurableStore store(this->store());
    const std::uint64_t v1 = store.commitTopology(g_, pre_);
    ASSERT_NE(v1, 0u);
    std::vector<Value> v_val(g_.numVertices(), 1.0);
    std::vector<Value> e_val(eValSize(pre_), 2.0);
    const std::uint64_t v2 =
        store.commitValues(g_, pre_, v_val, e_val, {}, v1);
    ASSERT_NE(v2, 0u);

    // Flip one byte in exactly one partition's E_val shard of v2: the
    // checksum mismatch must discard v2 (not abort), recover v1.
    corrupt("evals.p1.v" + std::to_string(v2) + ".shard");
    DurableStore check(this->store());
    EXPECT_EQ(check.recoverVersion(&g_), v1);
    EXPECT_EQ(check.stats().fallbacks, 1u);
    EXPECT_TRUE(check.loadTopology(v1, g_).has_value());
}

TEST_F(DurableStoreTest, OverlongManifestVersionNameIsIgnored)
{
    DurableStore store(this->store());
    const std::uint64_t v1 = store.commitTopology(g_, pre_);
    ASSERT_NE(v1, 0u);

    // A tampered/corrupted store dir can hold a manifest name whose
    // digit run overflows std::stoull; recovery must skip it — not die
    // on an uncaught std::out_of_range.
    std::ofstream(dir_ / "MANIFEST.v99999999999999999999999.json")
        << "{}";
    DurableStore check(this->store());
    EXPECT_EQ(check.recoverVersion(&g_), v1);
    const auto versions = check.listVersions();
    ASSERT_EQ(versions.size(), 1u);
    EXPECT_EQ(versions[0], v1);
}

// ------------------------------------------------ epoch-chain recovery

TEST_F(DurableStoreTest, ChainRecoveryMatchesReferenceOnLongChain)
{
    DurableStore store(this->store());
    const auto chain = commitChain(store, 12);
    expectRecoveryMatchesReference(chain.back(), 0);
}

TEST_F(DurableStoreTest, ChainRecoverySkipsSiblingWithCorruptDelta)
{
    // v2 and v3 are both delta children of v1; the newer one's delta
    // shard is corrupt, so the walk takes v2 and then v2's child v4.
    // A child whose delta cannot be read is no fallback.
    DurableStore store(this->store());
    const Epoch root = commitRoot(store);
    const Epoch older = commitChild(store, root, 21);
    const Epoch newer = commitChild(store, root, 22);
    const Epoch tip = commitChild(store, older, 23);
    ASSERT_EQ(newer.version, 3u);
    corrupt("delta.v3.shard");
    expectRecoveryMatchesReference(tip, 0);
}

TEST_F(DurableStoreTest, ChainRecoveryStopsBelowCorruptMidChainMeta)
{
    DurableStore store(this->store());
    const auto chain = commitChain(store, 6);
    corrupt("meta.v" + std::to_string(chain[3].version) + ".shard");
    expectRecoveryMatchesReference(chain[2], 1);
}

TEST_F(DurableStoreTest, ChainRecoveryPassesValueVersionBetweenEpochs)
{
    // v3 is a value plane on v2; the topology chain runs v1 -> v2 ->
    // v4 -> v5 around it.
    DurableStore store(this->store());
    const Epoch root = commitRoot(store);
    const Epoch mid = commitChild(store, root, 31);
    std::vector<Value> v_val(mid.graph->numVertices(), 1.0);
    std::vector<Value> e_val(eValSize(mid.pre), 2.0);
    ASSERT_EQ(store.commitValues(*mid.graph, mid.pre, v_val, e_val, {},
                                 mid.version),
              3u);
    const Epoch next = commitChild(store, mid, 32);
    const Epoch tip = commitChild(store, next, 33);
    expectRecoveryMatchesReference(tip, 0);
}

TEST_F(DurableStoreTest, ChainRecoveryIgnoresTornTipManifest)
{
    DurableStore store(this->store());
    const auto chain = commitChain(store, 5);
    const auto tip =
        dir_ / ("MANIFEST.v" + std::to_string(chain.back().version) +
                ".json");
    std::filesystem::resize_file(tip, std::filesystem::file_size(tip) / 2);
    expectRecoveryMatchesReference(chain[3], 0);
}

TEST_F(DurableStoreTest, ShortReadsDuringChainRecoveryStayOnTheLineage)
{
    std::vector<Epoch> chain;
    std::size_t root_files = 0;
    {
        DurableStore store(this->store());
        chain = commitChain(store, 4);
        root_files = 1 + store.readManifest(chain[0].version)->shards.size();
    }
    FaultyFileOps counted(FileFaultPlan{});
    {
        DurableStore store(this->store(), &counted);
        ASSERT_EQ(store.recoverTopologyChain(g_).version,
                  chain.back().version);
    }
    // Truncate each read in turn, one past the last (an unfaulted run).
    // Recovery never crashes and lands on the tip or an ancestor whose
    // topology then loads. Only a short read of one of the root's own
    // files can leave nothing: there is no older root to fall back to.
    std::size_t nothing = 0;
    std::uint64_t last = 0;
    for (long n = 0; n <= counted.readsSeen(); ++n) {
        FileFaultPlan plan;
        plan.short_read_at = n;
        FaultyFileOps ops(plan);
        DurableStore store(this->store(), &ops);
        const RecoveredChain got = store.recoverTopologyChain(g_);
        last = got.version;
        if (got.version == 0) {
            ++nothing;
            continue;
        }
        const auto it = std::find_if(
            chain.begin(), chain.end(),
            [&](const Epoch &e) { return e.version == got.version; });
        ASSERT_NE(it, chain.end()) << "short read at " << n;
        EXPECT_EQ(got.links, static_cast<std::size_t>(it - chain.begin()))
            << "short read at " << n;
        DurableStore clean(this->store());
        EXPECT_TRUE(clean.loadTopology(got.version,
                                       got.graph ? *got.graph : g_)
                        .has_value())
            << "short read at " << n;
    }
    EXPECT_LE(nothing, root_files);
    EXPECT_EQ(last, chain.back().version);
}

TEST_F(DurableStoreTest, ChainRecoveryReadsEachFileOnce)
{
    // One mapping per manifest plus one per distinct shard file: each
    // link adds a meta, a delta and a topo shard or so, while most of
    // its topo entries name files its ancestors already verified.
    for (const std::size_t epochs : {8, 16, 32}) {
        std::filesystem::remove_all(dir_);
        DurableStore writer(this->store());
        const auto chain = commitChain(writer, epochs);
        std::set<std::string> files;
        for (const Epoch &e : chain) {
            const auto m = writer.readManifest(e.version);
            ASSERT_TRUE(m.has_value()) << "version " << e.version;
            for (const ShardEntry &entry : m->shards)
                files.insert(entry.file);
        }
        FaultyFileOps ops(FileFaultPlan{});
        DurableStore store(this->store(), &ops);
        const RecoveredChain got = store.recoverTopologyChain(g_);
        ASSERT_EQ(got.version, chain.back().version) << epochs;
        EXPECT_LE(static_cast<std::size_t>(ops.readsSeen()),
                  chain.size() + files.size())
            << epochs << " epochs";
    }
}

// --------------------------------------- engine checkpoint flush-through

TEST_F(DurableStoreTest, EngineFlushesCheckpointsAndRestartsIdentically)
{
    DurableStore store(this->store());
    auto sub = engine::EngineSubstrate::build(
        g_, partition::Preprocessed(pre_));
    const std::uint64_t topo = sub->saveTo(store, g_);
    ASSERT_NE(topo, 0u);

    engine::EngineOptions opts;
    opts.store = &store;
    opts.store_parent = topo;
    const auto algo = std::make_shared<algorithms::Sssp>(0);

    engine::DiGraphEngine eng(g_, sub, opts);
    const auto with_store = eng.run(*algo);
    // The epoch-0 flush plus one commit per merge-barrier checkpoint.
    EXPECT_GT(eng.counters().get(metrics::Counter::StoreCommits), 0u);
    EXPECT_GT(store.newestVersion(), topo);
    const auto flushed = store.loadValues(store.newestVersion());
    ASSERT_TRUE(flushed.has_value());
    EXPECT_EQ(flushed->v_val.size(), g_.numVertices());

    // Attaching the store never changes algorithm results (it does add
    // checkpoint work to the simulated timeline, exactly like enabling
    // fault tolerance, so sim_cycles are compared only between runs of
    // the same configuration).
    engine::EngineOptions plain;
    engine::DiGraphEngine ref(g_, sub, plain);
    const auto ref_report = ref.run(*algo);
    ASSERT_EQ(ref_report.final_state.size(),
              with_store.final_state.size());
    for (std::size_t v = 0; v < ref_report.final_state.size(); ++v)
        ASSERT_EQ(ref_report.final_state[v], with_store.final_state[v])
            << "store flush: vertex " << v;
    EXPECT_EQ(ref_report.vertex_updates, with_store.vertex_updates);
    EXPECT_EQ(ref_report.rounds, with_store.rounds);

    // "Kill and restart": a brand-new process opens the store cold and
    // recomputes — bit-identical to a run that never crashed.
    DurableStore reopened(this->store());
    auto warm_sub = engine::EngineSubstrate::openFrom(reopened, g_);
    ASSERT_NE(warm_sub, nullptr);
    engine::DiGraphEngine warm(g_, warm_sub, plain);
    expectIdenticalRuns(warm.run(*algo), ref_report, "restart");
}

TEST_F(DurableStoreTest, DeviceLossRecoversFromDiskIdentically)
{
    DurableStore store(this->store());
    auto sub = engine::EngineSubstrate::build(
        g_, partition::Preprocessed(pre_));
    const std::uint64_t topo = sub->saveTo(store, g_);
    ASSERT_NE(topo, 0u);

    std::string err;
    const auto plan = gpusim::FaultPlan::parse("seed=3,device=1@1000",
                                               err);
    ASSERT_EQ(err, "");

    engine::EngineOptions with_disk;
    with_disk.platform.num_devices = 2;
    with_disk.faults = plan;
    with_disk.store = &store;
    with_disk.store_parent = topo;
    const auto algo = std::make_shared<algorithms::Sssp>(0);
    engine::DiGraphEngine a(g_, sub, with_disk);
    const auto from_disk = a.run(*algo);

    engine::EngineOptions in_memory = with_disk;
    in_memory.store = nullptr;
    in_memory.store_parent = 0;
    engine::DiGraphEngine b(g_, sub, in_memory);
    const auto from_shadow = b.run(*algo);

    // Device-loss rollback reloading the checkpoint from disk is byte
    // for byte the in-memory shadow rollback.
    expectIdenticalRuns(from_disk, from_shadow, "device loss");
    if (from_disk.recoveries > 0) {
        EXPECT_GT(a.counters().get(metrics::Counter::StoreRecovers),
                  0u);
    }
}

TEST_F(DurableStoreTest, FailedFlushCarriesDirtyPartitionsForward)
{
    // Two stores over sibling dirs: one clean, one whose FIRST
    // post-epoch-0 flush write dies. The failed epoch's dirty
    // partitions must ride into the next flush — so both stores' final
    // committed value planes are bit-identical. (Without the backlog,
    // the epoch after the failure marks the lost partitions "clean"
    // and the faulty store's newest version reuses stale shards.)
    const std::string clean_dir = (dir_ / "clean").string();
    const std::string faulty_dir = (dir_ / "faulty").string();
    auto sub = engine::EngineSubstrate::build(
        g_, partition::Preprocessed(pre_));
    const auto algo = std::make_shared<algorithms::Sssp>(0);

    DurableStore clean(clean_dir);
    const std::uint64_t clean_topo = sub->saveTo(clean, g_);
    ASSERT_NE(clean_topo, 0u);
    {
        DurableStore setup(faulty_dir);
        ASSERT_EQ(sub->saveTo(setup, g_), clean_topo);
    }
    // Engine init commit = vvals + one evals per partition + manifest;
    // the next write is the epoch-1 flush's vvals.
    FileFaultPlan plan;
    plan.fail_write_at = static_cast<long>(pre_.numPartitions() + 2);
    FaultyFileOps ops(plan);
    DurableStore faulty(faulty_dir, &ops);

    engine::EngineOptions opts;
    opts.checkpoint_interval = 1; // flush every wave: several epochs
    opts.store = &clean;
    opts.store_parent = clean_topo;
    engine::DiGraphEngine a(g_, sub, opts);
    const auto clean_report = a.run(*algo);

    opts.store = &faulty;
    engine::DiGraphEngine b(g_, sub, opts);
    const auto faulty_report = b.run(*algo);

    // The injected failure fired, and at least one later flush landed.
    EXPECT_GE(b.counters().get(metrics::Counter::StoreCommitFails), 1u);
    EXPECT_GE(b.counters().get(metrics::Counter::StoreCommits), 2u);
    expectIdenticalRuns(clean_report, faulty_report, "failed flush");

    // Both newest versions snapshot the same (last) checkpoint epoch;
    // the faulty lineage must not have leaked a stale shard into it.
    const auto want = clean.loadValues(clean.newestVersion());
    DurableStore reopened(faulty_dir);
    const auto got = reopened.loadValues(reopened.newestVersion());
    ASSERT_TRUE(want.has_value());
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->v_val, want->v_val);
    EXPECT_EQ(got->e_val, want->e_val);
}

TEST_F(DurableStoreTest, DeviceLossAfterFailedFlushUsesTheShadow)
{
    // A failed flush leaves the disk one (or more) epochs behind the
    // in-memory shadow. Device-loss recovery must then ignore the disk
    // copy: substituting the older version would mix rolled-back and
    // live entries (the dirty journals only cover the last epoch).
    auto sub = engine::EngineSubstrate::build(
        g_, partition::Preprocessed(pre_));
    DurableStore setup(this->store());
    const std::uint64_t topo = sub->saveTo(setup, g_);
    ASSERT_NE(topo, 0u);

    std::string err;
    const auto fault = gpusim::FaultPlan::parse("seed=3,device=1@1000",
                                                err);
    ASSERT_EQ(err, "");
    const auto algo = std::make_shared<algorithms::Sssp>(0);

    // Every value flush after epoch 0 dies: the store stays pinned at
    // the initial checkpoint while the shadow advances every wave, so
    // the loss is guaranteed to land while disk and shadow disagree.
    FileFaultPlan plan;
    plan.fail_writes_from = static_cast<long>(pre_.numPartitions() + 2);
    FaultyFileOps ops(plan);
    DurableStore faulty(this->store(), &ops);

    engine::EngineOptions with_disk;
    with_disk.platform.num_devices = 2;
    with_disk.checkpoint_interval = 1;
    with_disk.faults = fault;
    with_disk.store = &faulty;
    with_disk.store_parent = topo;
    engine::DiGraphEngine a(g_, sub, with_disk);
    const auto from_disk = a.run(*algo);

    engine::EngineOptions in_memory = with_disk;
    in_memory.store = nullptr;
    in_memory.store_parent = 0;
    engine::DiGraphEngine b(g_, sub, in_memory);
    const auto from_shadow = b.run(*algo);

    EXPECT_GE(a.counters().get(metrics::Counter::StoreCommitFails), 1u);
    expectIdenticalRuns(from_disk, from_shadow,
                        "device loss after failed flush");
}

// --------------------------------------------------------- job journal

TEST_F(DurableStoreTest, JournalReplayReturnsAdmittedMinusCompleted)
{
    std::filesystem::create_directories(dir_);
    JobJournal journal((dir_ / "jobs.wal").string());
    ASSERT_TRUE(journal.appendAdmit(0, "sssp:0", 2, "a"));
    ASSERT_TRUE(journal.appendAdmit(1, "pagerank", 0, ""));
    ASSERT_TRUE(journal.appendComplete(0));
    ASSERT_TRUE(journal.appendAdmit(2, "wcc", -1, "b"));

    const auto pending = journal.replay();
    ASSERT_EQ(pending.size(), 2u);
    EXPECT_EQ(pending[0].id, 1u);
    EXPECT_EQ(pending[0].spec, "pagerank");
    EXPECT_EQ(pending[0].tenant, "");
    EXPECT_EQ(pending[1].id, 2u);
    EXPECT_EQ(pending[1].spec, "wcc");
    EXPECT_EQ(pending[1].priority, -1);
    EXPECT_EQ(pending[1].tenant, "b");

    ASSERT_TRUE(journal.reset());
    EXPECT_TRUE(journal.replay().empty());
}

TEST_F(DurableStoreTest, JournalDiscardsTornTail)
{
    std::filesystem::create_directories(dir_);
    const auto path = (dir_ / "jobs.wal").string();
    JobJournal journal(path);
    ASSERT_TRUE(journal.appendAdmit(0, "sssp:0", 0, "a"));
    // A crash mid-append leaves an unterminated record.
    {
        std::ofstream out(path, std::ios::app);
        out << "A 1 0 b kco"; // no newline
    }
    const auto pending = journal.replay();
    ASSERT_EQ(pending.size(), 1u);
    EXPECT_EQ(pending[0].spec, "sssp:0");
}

TEST_F(DurableStoreTest, JournalTruncatesTornTailBeforeAppending)
{
    // A torn tail must not just be skipped at replay: a later append
    // would fuse with the torn prefix into one garbage line. The first
    // append after reopening truncates the unterminated tail away.
    std::filesystem::create_directories(dir_);
    const auto path = (dir_ / "jobs.wal").string();
    {
        JobJournal journal(path);
        ASSERT_TRUE(journal.appendAdmit(0, "sssp:0", 0, "a"));
    }
    {
        std::ofstream out(path, std::ios::app);
        out << "A 1 0 b kco"; // crash mid-append: no newline
    }
    JobJournal reopened(path);
    ASSERT_TRUE(reopened.appendAdmit(5, "wcc", 0, "c"));
    const auto pending = reopened.replay();
    ASSERT_EQ(pending.size(), 2u);
    EXPECT_EQ(pending[0].spec, "sssp:0");
    EXPECT_EQ(pending[1].spec, "wcc");
    EXPECT_EQ(pending[1].tenant, "c");
}

TEST_F(DurableStoreTest, JournalCompactionAndAdoptionSurviveRestart)
{
    std::filesystem::create_directories(dir_);
    const auto path = (dir_ / "jobs.wal").string();
    JobJournal journal(path);
    ASSERT_TRUE(journal.appendAdmit(0, "sssp:0", 2, "a"));
    ASSERT_TRUE(journal.appendAdmit(1, "pagerank", 0, ""));
    ASSERT_TRUE(journal.appendComplete(0));
    ASSERT_TRUE(journal.appendAdmit(2, "wcc", -1, "b"));

    const auto pending = journal.replay();
    ASSERT_EQ(pending.size(), 2u);
    ASSERT_TRUE(journal.compact(pending));

    // The compacted WAL replays the identical set under the same
    // record ids — a crash right here loses nothing.
    JobJournal reopened(path);
    const auto again = reopened.replay();
    ASSERT_EQ(again.size(), 2u);
    EXPECT_EQ(again[0].id, 1u);
    EXPECT_EQ(again[0].spec, "pagerank");
    EXPECT_EQ(again[1].id, 2u);
    EXPECT_EQ(again[1].spec, "wcc");
    EXPECT_EQ(again[1].priority, -1);

    // Re-admission adopts the surviving records (no new writes), and a
    // genuinely new job gets a record id that collides with nothing
    // even though its *service* id (0) is already taken in the WAL.
    ASSERT_TRUE(reopened.appendAdmit(0, "pagerank", 0, "", 1));
    ASSERT_TRUE(reopened.appendAdmit(1, "wcc", -1, "b", 2));
    ASSERT_TRUE(reopened.appendAdmit(2, "kcore:3", 0, ""));
    const auto mixed = reopened.replay();
    ASSERT_EQ(mixed.size(), 3u);
    EXPECT_EQ(mixed[2].id, 3u);
    EXPECT_EQ(mixed[2].spec, "kcore:3");

    // Completing an adopted job retires the OLD record, not a fresh
    // id: service job 0 maps back to WAL record 1.
    ASSERT_TRUE(reopened.appendComplete(0));
    const auto after = reopened.replay();
    ASSERT_EQ(after.size(), 2u);
    EXPECT_EQ(after[0].id, 2u);
    EXPECT_EQ(after[0].spec, "wcc");
    EXPECT_EQ(after[1].id, 3u);
}

TEST_F(DurableStoreTest, TornAppendInjectionLeavesJournalReadable)
{
    std::filesystem::create_directories(dir_);
    const auto path = (dir_ / "jobs.wal").string();
    {
        JobJournal journal(path);
        ASSERT_TRUE(journal.appendAdmit(0, "sssp:0", 0, "a"));
        FileFaultPlan plan;
        plan.torn_append_at = 0;
        FaultyFileOps ops(plan);
        JobJournal faulty(path, &ops);
        EXPECT_FALSE(faulty.appendAdmit(1, "pagerank", 0, "b"));
    }
    JobJournal journal(path);
    const auto pending = journal.replay();
    ASSERT_EQ(pending.size(), 1u);
    EXPECT_EQ(pending[0].spec, "sssp:0");
}

TEST_F(DurableStoreTest,
       ServiceJournalsJobsAndReplayedRunIsIdempotent)
{
    DurableStore store(this->store());
    auto sub = engine::EngineSubstrate::build(
        g_, partition::Preprocessed(pre_));
    ASSERT_NE(sub->saveTo(store, g_), 0u);

    JobJournal journal(store.journalPath());
    engine::EngineOptions opts;
    engine::ServiceConfig sconfig;
    sconfig.session_threads = 1;
    sconfig.journal = &journal;

    std::vector<Value> first_state;
    {
        engine::GraphService service(g_, sub, opts, sconfig);
        service.addJobAsync(engine::JobRequest{"sssp:0", "a", 1});
        service.addJobAsync(engine::JobRequest{"wcc", "b", 0});
        const auto results = service.drain();
        ASSERT_EQ(results.size(), 2u);
        first_state = results[0].report.final_state;
    }
    // Both completed: the WAL carries their A and C records, so a
    // replay finds nothing pending.
    EXPECT_TRUE(journal.replay().empty());

    // A job that finished *between* its completion and the C append
    // (crash window) is re-run on restart; idempotent because results
    // are deterministic. Simulate by appending an orphan A record.
    ASSERT_TRUE(journal.appendAdmit(9, "sssp:0", 1, "a"));
    const auto pending = journal.replay();
    ASSERT_EQ(pending.size(), 1u);
    // Restart protocol (what the CLI serve path does): compact the WAL
    // down to the pending set — still replayable if we crash here —
    // then re-admit with adoption so completions retire the old
    // records instead of journaling fresh (possibly colliding) ids.
    ASSERT_TRUE(journal.compact(pending));
    ASSERT_EQ(journal.replay().size(), 1u);

    engine::GraphService restarted(g_, sub, opts, sconfig);
    for (const auto &p : pending) {
        engine::JobRequest request;
        request.spec = p.spec;
        request.priority = p.priority;
        if (!p.tenant.empty())
            request.tenant = p.tenant;
        request.journal_id = p.id;
        restarted.addJobAsync(request);
    }
    const auto results = restarted.drain();
    ASSERT_EQ(results.size(), 1u);
    ASSERT_EQ(results[0].report.final_state.size(),
              first_state.size());
    for (std::size_t v = 0; v < first_state.size(); ++v)
        ASSERT_EQ(results[0].report.final_state[v], first_state[v])
            << "vertex " << v;
    // The adopted record was completed under its original WAL id: a
    // third restart finds nothing pending.
    EXPECT_TRUE(journal.replay().empty());
}

// --------------------------------------------------- version GC safety

TEST_F(DurableStoreTest, GcNeverDeletesShardsLiveManifestsReference)
{
    // Layout under test: v1 is a stale standalone root, v2 the live
    // root and v3 its incremental child (v3's manifest references v2's
    // clean shard FILES). GC with one retained head must delete exactly
    // v1's files — and when any single remove fails mid-GC (EPERM, or
    // a crash re-run) every manifest still on disk must keep loading:
    // a manifest may outlive the decision to doom its shards, but a
    // shard a live manifest references must never disappear.
    std::vector<graph::Edge> batch;
    for (VertexId i = 0; i < 60; ++i)
        batch.push_back({static_cast<VertexId>(600 + i),
                         static_cast<VertexId>((i * 37) % 600), 1.0});
    auto delta = graph::GraphBuilder::append(g_, batch);
    partition::Preprocessed base_copy = pre_;
    base_copy.sorted_adjacency = nullptr; // private scratch only
    const auto pre2 = partition::appendPreprocess(
        std::move(base_copy), delta.graph, delta, popts_);

    const auto build = [&](DurableStore &store) {
        const std::uint64_t v1 = store.commitTopology(g_, pre_);
        const std::uint64_t v2 = store.commitTopology(g_, pre_);
        const std::uint64_t v3 =
            store.commitTopology(delta.graph, pre2, v2, &delta.fresh);
        EXPECT_NE(v1, 0u);
        EXPECT_NE(v2, 0u);
        return v3;
    };

    for (long n = 0;; ++n) {
        std::filesystem::remove_all(dir_);
        std::uint64_t v3 = 0;
        {
            DurableStore setup(this->store());
            v3 = build(setup);
            ASSERT_NE(v3, 0u) << "fail_remove_at " << n;
        }
        FileFaultPlan plan;
        plan.fail_remove_at = n;
        FaultyFileOps ops(plan);
        long removes_seen = 0;
        {
            DurableStore store(this->store(), &ops);
            const auto rep = store.gcVersions(/*keep_heads=*/1);
            EXPECT_EQ(rep.kept_versions, 2u) << "fail_remove_at " << n;
            EXPECT_EQ(rep.kept_heads, 1u) << "fail_remove_at " << n;
            removes_seen = ops.removesSeen();
        }
        // Invariant check with clean ops: the live lineage still
        // recovers to v3, and every manifest that survived (faulted or
        // kept) still loads its full topology — no dangling shard refs.
        DurableStore check(this->store());
        const auto chain = check.recoverTopologyChain(g_);
        ASSERT_EQ(chain.version, v3) << "fail_remove_at " << n;
        for (std::uint64_t v = 1; v <= v3; ++v) {
            if (!std::filesystem::exists(
                    dir_ / ("MANIFEST.v" + std::to_string(v) + ".json")))
                continue;
            const auto &gv = v == v3 ? delta.graph : g_;
            EXPECT_TRUE(check.loadTopology(v, gv).has_value())
                << "version " << v << " fail_remove_at " << n;
        }
        if (removes_seen <= n)
            break; // the fault index ran past the last remove: done
    }

    // The final iteration ran an effectively unfaulted GC: the stale
    // root's manifest is gone, the kept lineage is complete.
    EXPECT_FALSE(std::filesystem::exists(dir_ / "MANIFEST.v1.json"));
    EXPECT_TRUE(std::filesystem::exists(dir_ / "MANIFEST.v2.json"));
    EXPECT_TRUE(std::filesystem::exists(dir_ / "MANIFEST.v3.json"));
}

} // namespace
} // namespace digraph::storage
