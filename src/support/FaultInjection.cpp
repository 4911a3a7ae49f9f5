//===- support/FaultInjection.cpp - Seeded fault injection ----------------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "wcs/support/FaultInjection.h"

#include "wcs/support/Hashing.h"
#include "wcs/support/JsonReader.h" // failMsg
#include "wcs/support/Telemetry.h"

#include <cstdlib>
#include <map>
#include <mutex>

using namespace wcs;
using namespace wcs::faultinject;
using wcs::jsonfield::failMsg;

namespace {

/// The closed set of sites wired through the serving stack and the
/// sweep driver. arm() rejects anything else so a misspelled point fails
/// loudly instead of silently never firing.
const char *const KnownPoints[] = {"store.write", "socket.send",
                                   "socket.recv", "scheduler.job",
                                   "sweep.periodic-pass"};

struct Config {
  std::mutex Mu;
  std::map<std::string, double> Probs;       // point -> probability
  std::map<std::string, uint64_t> Injected;  // point -> faults fired
  uint64_t Seed = 0;
  uint64_t Draws = 0; // total draws since arm(); indexes the sequence
};

Config &config() {
  static Config C;
  return C;
}

bool knownPoint(const std::string &Name) {
  for (const char *P : KnownPoints)
    if (Name == P)
      return true;
  return false;
}

std::string knownPointList() {
  std::string Out;
  for (const char *P : KnownPoints)
    Out += (Out.empty() ? "" : ", ") + std::string(P);
  return Out;
}

/// Draw I of a run seeded with S, as a uniform double in [0, 1). A
/// pure function of (S, I): replaying the same spec and seed replays
/// the same fault schedule.
double drawUniform(uint64_t Seed, uint64_t Index) {
  uint64_t Bits = hashCombine(hashMix(Seed + 0x9e3779b97f4a7c15ull), Index);
  return double(Bits >> 11) * (1.0 / 9007199254740992.0); // 2^-53
}

} // namespace

bool faultinject::detail::shouldFailSlow(const char *Point) {
  Config &C = config();
  std::lock_guard<std::mutex> L(C.Mu);
  auto It = C.Probs.find(Point);
  if (It == C.Probs.end())
    return false;
  double U = drawUniform(C.Seed, C.Draws++);
  if (U >= It->second)
    return false;
  ++C.Injected[Point];
  telemetry::registry().counter("fault.injected").add();
  return true;
}

bool faultinject::arm(const std::string &Spec, uint64_t Seed,
                      std::string *Err) {
  std::map<std::string, double> Probs;
  size_t Pos = 0;
  while (Pos < Spec.size()) {
    size_t End = Spec.find(',', Pos);
    if (End == std::string::npos)
      End = Spec.size();
    std::string Entry = Spec.substr(Pos, End - Pos);
    Pos = End + 1;
    if (Entry.empty())
      continue;
    size_t Colon = Entry.find(':');
    if (Colon == std::string::npos)
      return failMsg(Err, "fault spec entry '" + Entry +
                              "' is not point:probability");
    std::string Point = Entry.substr(0, Colon);
    if (!knownPoint(Point))
      return failMsg(Err, "unknown fault point '" + Point + "' (known: " +
                              knownPointList() + ")");
    char *EndPtr = nullptr;
    std::string ProbStr = Entry.substr(Colon + 1);
    double Prob = std::strtod(ProbStr.c_str(), &EndPtr);
    if (ProbStr.empty() || EndPtr == ProbStr.c_str() || *EndPtr != '\0' ||
        !(Prob >= 0.0 && Prob <= 1.0))
      return failMsg(Err, "fault probability '" + ProbStr + "' for '" + Point +
                              "' is not a number in [0, 1]");
    Probs[Point] = Prob;
  }
  Config &C = config();
  std::lock_guard<std::mutex> L(C.Mu);
  C.Probs = std::move(Probs);
  C.Injected.clear();
  C.Seed = Seed;
  C.Draws = 0;
  detail::Armed.store(C.Probs.empty() ? 0 : 1, std::memory_order_relaxed);
  return true;
}

bool faultinject::armFromEnv(std::string *Err) {
  const char *Spec = std::getenv("WCS_FAULT");
  if (!Spec || !*Spec)
    return true;
  uint64_t Seed = 0;
  if (const char *SeedStr = std::getenv("WCS_FAULT_SEED"))
    Seed = std::strtoull(SeedStr, nullptr, 10);
  return arm(Spec, Seed, Err);
}

void faultinject::disarm() {
  Config &C = config();
  std::lock_guard<std::mutex> L(C.Mu);
  C.Probs.clear();
  C.Injected.clear();
  C.Draws = 0;
  detail::Armed.store(0, std::memory_order_relaxed);
}

bool faultinject::armed() {
  return detail::Armed.load(std::memory_order_relaxed) != 0;
}

std::string faultinject::armedSpec() {
  Config &C = config();
  std::lock_guard<std::mutex> L(C.Mu);
  std::string Out;
  for (const auto &KV : C.Probs) {
    if (!Out.empty())
      Out += ',';
    Out += KV.first + ':' + std::to_string(KV.second);
  }
  return Out;
}

uint64_t faultinject::injectedCount() {
  Config &C = config();
  std::lock_guard<std::mutex> L(C.Mu);
  uint64_t Total = 0;
  for (const auto &KV : C.Injected)
    Total += KV.second;
  return Total;
}

uint64_t faultinject::injectedCount(const std::string &Point) {
  Config &C = config();
  std::lock_guard<std::mutex> L(C.Mu);
  auto It = C.Injected.find(Point);
  return It == C.Injected.end() ? 0 : It->second;
}
