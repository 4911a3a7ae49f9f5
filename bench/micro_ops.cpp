//===- bench/micro_ops.cpp - Component micro-benchmarks -------------------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
// google-benchmark microbenchmarks of the hot components: concrete cache
// accesses per policy (one runtime-dispatched access() call, and the
// batched loop the simulators run), symbolic (tagged) accesses on both
// paths, whole batched walks of one innermost loop (with and without
// repeated runs to skip), warp state keys (recomputed and incremental),
// whole periodic passes, Fourier-Motzkin minimization, and
// stack-distance updates (the fully associative profile, a one-set
// bank, and both per-set bank representations). These quantify the
// constant factors behind the figure harnesses.
//
//===----------------------------------------------------------------------===//

#include "wcs/cache/ConcreteCache.h"
#include "wcs/poly/FourierMotzkin.h"
#include "wcs/polybench/Polybench.h"
#include "wcs/scop/Builder.h"
#include "wcs/sim/BatchWalk.h"
#include "wcs/sim/SymbolicCache.h"
#include "wcs/sim/WarpEngine.h"
#include "wcs/trace/PeriodicPass.h"
#include "wcs/trace/StackDistance.h"

#include <benchmark/benchmark.h>

#include <climits>
#include <random>

using namespace wcs;

namespace {

CacheConfig microCache(PolicyKind K) {
  CacheConfig C;
  C.SizeBytes = 4 * 1024;
  C.Assoc = 8;
  C.BlockBytes = 64;
  C.Policy = K;
  return C;
}

std::vector<BlockId> streamTrace(size_t N) {
  std::mt19937 Rng(42);
  std::vector<BlockId> T(N);
  BlockId Cur = 0;
  for (size_t I = 0; I < N; ++I) {
    if (Rng() % 4 == 0)
      Cur = Rng() % 256;
    T[I] = Cur++;
  }
  return T;
}

void BM_ConcreteAccess(benchmark::State &State) {
  PolicyKind K = static_cast<PolicyKind>(State.range(0));
  ConcreteCache C(microCache(K));
  std::vector<BlockId> T = streamTrace(4096);
  size_t I = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(C.access(T[I], true).Hit);
    I = (I + 1) & 4095;
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_ConcreteAccess)
    ->Arg(static_cast<int>(PolicyKind::Lru))
    ->Arg(static_cast<int>(PolicyKind::Fifo))
    ->Arg(static_cast<int>(PolicyKind::Plru))
    ->Arg(static_cast<int>(PolicyKind::QuadAgeLru));

void BM_SymbolicAccess(benchmark::State &State) {
  HierarchyConfig H = HierarchyConfig::twoLevel(
      microCache(PolicyKind::Plru),
      CacheConfig{32 * 1024, 16, 64, PolicyKind::QuadAgeLru,
                  WriteAllocate::Yes});
  SymbolicHierarchy C(H);
  std::vector<BlockId> T = streamTrace(4096);
  // A depth-2 access: the epoch holds the outer iterator, X the inner.
  EpochTable Epochs(64);
  uint32_t E = Epochs.add(IterVec{0});
  size_t I = 0;
  for (auto _ : State) {
    SymTag Tag{3, E, static_cast<int64_t>(I)};
    benchmark::DoNotOptimize(C.access(T[I], false, Tag).L1Hit);
    I = (I + 1) & 4095;
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_SymbolicAccess);

/// One 1024-op chunk of streamTrace, every fourth op a write: the unit
/// the batch walkers hand CacheHierarchy::accessBatch.
std::vector<BatchedAccess> batchChunk() {
  std::vector<BlockId> T = streamTrace(1024);
  std::vector<BatchedAccess> Ops;
  for (size_t I = 0; I < T.size(); ++I)
    Ops.push_back(BatchedAccess::make(T[I], I % 4 == 3));
  return Ops;
}

void BM_ConcreteBatch(benchmark::State &State) {
  PolicyKind K = static_cast<PolicyKind>(State.range(0));
  ConcreteHierarchy C(HierarchyConfig::singleLevel(microCache(K)));
  std::vector<BatchedAccess> Ops = batchChunk();
  BatchCounters Counts;
  for (auto _ : State) {
    C.accessBatch(Ops.data(), Ops.size(), Counts);
    benchmark::DoNotOptimize(Counts.L1Misses);
    benchmark::ClobberMemory();
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(Ops.size()));
}
BENCHMARK(BM_ConcreteBatch)
    ->Arg(static_cast<int>(PolicyKind::Lru))
    ->Arg(static_cast<int>(PolicyKind::Fifo))
    ->Arg(static_cast<int>(PolicyKind::Plru))
    ->Arg(static_cast<int>(PolicyKind::QuadAgeLru));

void BM_SymbolicBatch(benchmark::State &State) {
  PolicyKind K = static_cast<PolicyKind>(State.range(0));
  SymbolicHierarchy C(HierarchyConfig::singleLevel(microCache(K)));
  std::vector<BatchedAccess> Ops = batchChunk();
  // Two lanes (access nodes 3 and 4) of one depth-2 activation.
  EpochTable Epochs(64);
  const int32_t Nodes[] = {3, 4};
  SymTag::Cursor Tags;
  Tags.Nodes = Nodes;
  Tags.NumLanes = 2;
  Tags.Epoch = Epochs.add(IterVec{0});
  BatchCounters Counts;
  for (auto _ : State) {
    C.accessBatch(Ops.data(), Ops.size(), Counts, Tags);
    Tags.X += static_cast<int64_t>(Ops.size() / 2);
    benchmark::DoNotOptimize(Counts.L1Misses);
    benchmark::ClobberMemory();
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(Ops.size()));
}
BENCHMARK(BM_SymbolicBatch)
    ->Arg(static_cast<int>(PolicyKind::Lru))
    ->Arg(static_cast<int>(PolicyKind::Fifo))
    ->Arg(static_cast<int>(PolicyKind::Plru))
    ->Arg(static_cast<int>(PolicyKind::QuadAgeLru));

/// Two 1,024-iteration activations of one innermost loop, each one lanes
/// event of the program-order walk (ScopWalk, HierarchyStepper):
/// arguments (policy, shape, tags). Shape 0 has four unit-stride
/// lanes, so every run of eight iterations is emitted as two simulated
/// iterations and a repeat marker; shape 1 adds a lane that moves a
/// whole 4 KiB row per iteration, so nothing is skipped. Tags 0 is the
/// concrete hierarchy (NoTag), 1 the symbolic one (SymTag).
void BM_BatchWalk(benchmark::State &State) {
  PolicyKind K = static_cast<PolicyKind>(State.range(0));
  bool RowLane = State.range(1) != 0;
  ScopBuilder B("walk");
  unsigned Arrays[4];
  for (unsigned I = 0; I < 4; ++I)
    Arrays[I] = B.addArray(std::string(1, "ABCD"[I]), 8, {1024});
  unsigned M = B.addArray("M", 8, {1024, 512});
  B.beginLoop("t", B.cst(0), B.cst(1));
  B.beginLoop("j", B.cst(0), B.cst(1023));
  for (unsigned I = 0; I < 3; ++I)
    B.read(Arrays[I], {B.iter("j")});
  B.write(Arrays[3], {B.iter("j")});
  if (RowLane)
    B.read(M, {B.iter("j"), B.iter("t")});
  B.endLoop();
  B.endLoop();
  ScopProgram P = B.finish();
  HierarchyConfig H = HierarchyConfig::singleLevel(microCache(K));
  SimStats Stats;
  auto Run = [&](auto &Cache, uint32_t Epoch) {
    HierarchyStepper Step(Cache, Stats, log2Exact(H.blockBytes()));
    Step.Epochs.assign(2, Epoch); // Both loops' activations.
    ScopWalk Walk(P, /*IncludeScalars=*/false, /*Batch=*/true, Step);
    for (auto _ : State)
      Walk.run();
  };
  if (State.range(2) == 0) {
    ConcreteHierarchy C(H);
    Run(C, 0);
  } else {
    SymbolicHierarchy C(H);
    EpochTable Epochs(64);
    Run(C, Epochs.add(IterVec{0}));
  }
  benchmark::DoNotOptimize(Stats.Level[0].Misses);
  State.SetItemsProcessed(static_cast<int64_t>(Stats.SimulatedAccesses));
}
BENCHMARK(BM_BatchWalk)
    ->ArgsProduct({{static_cast<int>(PolicyKind::Lru),
                    static_cast<int>(PolicyKind::Fifo),
                    static_cast<int>(PolicyKind::Plru),
                    static_cast<int>(PolicyKind::QuadAgeLru)},
                   {0, 1},
                   {0, 1}});

/// The warp state key of a populated PLRU L1 (4 KiB, 8-way), for the
/// i-loop of jacobi-2d. Argument 0 recomputes it from every line, as
/// the test reference does; argument 1 keys incrementally after each
/// iteration's accesses (one statement of the j-loop body, six
/// accesses), as a probe does, so only the sets they touched rehash.
void BM_StateKey(benchmark::State &State) {
  std::string Err;
  ScopProgram P = buildKernel("jacobi-2d", ProblemSize::Small, &Err);
  HierarchyConfig H = HierarchyConfig::singleLevel(microCache(
      PolicyKind::Plru));
  SymbolicHierarchy C(H);
  SimOptions O;
  WarpEngine Eng(P, H, O);
  // Populate the cache with tagged lines: access 0 sits in the (t, i, j)
  // nest, so its epoch holds (t, i) and X is j.
  const AccessNode *A = P.accesses()[0];
  EpochTable Epochs(64);
  std::vector<uint32_t> RowEpoch;
  for (int64_t Row = 0; Row < 40; ++Row)
    RowEpoch.push_back(Epochs.add(IterVec{0, 1 + Row}));
  for (int64_t I = 0; I < 4096; ++I) {
    int64_t Y = 1 + I % 40;
    C.access(A->Address.eval(IterVec{0, Y, Y}) >> 6, false,
             SymTag{A->Id, RowEpoch[I % 40], Y});
  }
  WarpScope S;
  S.Loop = P.loops()[1]; // The i-loop.
  S.Prefix = IterVec{0};
  S.Hi = 40;
  if (State.range(0) == 0) {
    for (auto _ : State)
      benchmark::DoNotOptimize(Eng.stateKey(C, Epochs, S));
  } else {
    KeyCache Keys;
    const int64_t Y = 20; // Row 19's epoch.
    int64_t J = 1;
    for (auto _ : State) {
      for (int Id = 0; Id < 6; ++Id) {
        const AccessNode *N = P.accesses()[Id];
        C.access(N->Address.eval(IterVec{0, Y, J}) >> 6, N->isWrite(),
                 SymTag{N->Id, RowEpoch[Y - 1], J});
      }
      J = J % 38 + 1;
      benchmark::DoNotOptimize(Eng.stateKey(C, Epochs, S, Keys, C.tick()));
    }
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_StateKey)->Arg(0)->Arg(1);

/// One whole periodic pass (trace/PeriodicPass: the depth-profiled
/// warping walk of one 64-byte 16-way LRU bank) at SMALL: gramschmidt on
/// 4 sets (argument 0), where most warp checks fail, and jacobi-2d on
/// 1,024 sets (argument 1), where every probe keys and snapshots a
/// 16,384-line state.
void BM_PeriodicPass(benchmark::State &State) {
  const bool Jacobi = State.range(0) == 1;
  std::string Err;
  ScopProgram P = buildKernel(Jacobi ? "jacobi-2d" : "gramschmidt",
                              ProblemSize::Small, &Err);
  const unsigned Sets = Jacobi ? 1024 : 4;
  uint64_t Accesses = 0;
  for (auto _ : State) {
    PeriodicPassResult R = runPeriodicPass(P, 64, Sets, 16);
    Accesses += R.Histogram.Accesses;
    benchmark::DoNotOptimize(R.Histogram.Beyond);
  }
  State.SetItemsProcessed(static_cast<int64_t>(Accesses));
}
BENCHMARK(BM_PeriodicPass)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_FourierMotzkinMinimize(benchmark::State &State) {
  for (auto _ : State) {
    LinearSystem Sys(3);
    Sys.addGE({1, 0, 0}, -1);
    Sys.addGE({3, -1, 0}, 0);
    Sys.addGE({0, 1, -2}, 5);
    Sys.addGE({0, -1, 1}, 40);
    Sys.addGE({0, 0, 1}, 0);
    Sys.addGE({0, 0, -1}, 100);
    std::optional<Rational> Min;
    benchmark::DoNotOptimize(Sys.minimize(0, Min));
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_FourierMotzkinMinimize);

/// One access of the fully associative profile: a one-set bank of
/// unbounded width (an exact tracker).
void BM_StackDistance(benchmark::State &State) {
  std::vector<BlockId> T = streamTrace(1 << 16);
  SetDistanceBank Prof(64, 1, UINT_MAX);
  size_t I = 0;
  for (auto _ : State) {
    Prof.accessBlock(T[I]);
    I = (I + 1) & ((1 << 16) - 1);
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_StackDistance);

/// One access of a 64-set bank that answers 16 ways, in each
/// representation: the bank width is the argument, 16 keeps LRU rows and
/// MaxRowAssoc + 1 keeps the exact per-set trackers (the per-access gap
/// behind the 64-way rule).
void BM_SetDistanceBank(benchmark::State &State) {
  std::vector<BlockId> T = streamTrace(1 << 16);
  SetDistanceBank Bank(64, 64, static_cast<unsigned>(State.range(0)));
  size_t I = 0;
  for (auto _ : State) {
    Bank.accessBlock(T[I]);
    I = (I + 1) & ((1 << 16) - 1);
  }
  benchmark::DoNotOptimize(Bank.missesForAssoc(16));
  State.SetLabel(Bank.maxAssoc() <= SetDistanceBank::MaxRowAssoc ? "lru-rows"
                                                                  : "exact");
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_SetDistanceBank)->Arg(16)->Arg(SetDistanceBank::MaxRowAssoc + 1);

} // namespace

BENCHMARK_MAIN();
