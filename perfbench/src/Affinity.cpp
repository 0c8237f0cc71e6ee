//===- perfbench/src/Affinity.cpp - CPU rotation and pinning ---------------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <pthread.h>
#include <sched.h>

using namespace perfbench;

namespace {

bool pinTo(const std::vector<int> &Cpus) {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  for (int C : Cpus)
    CPU_SET(C, &Set);
  return pthread_setaffinity_np(pthread_self(), sizeof(Set), &Set) == 0;
}

std::vector<int> allowedCpus() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  std::vector<int> Cpus;
  if (pthread_getaffinity_np(pthread_self(), sizeof(Set), &Set) != 0)
    return Cpus;
  for (int C = 0; C < CPU_SETSIZE; ++C)
    if (CPU_ISSET(C, &Set))
      Cpus.push_back(C);
  return Cpus;
}

} // namespace

CpuRotation::CpuRotation() : Cpus(allowedCpus()) {}

CpuRotation::~CpuRotation() {
  if (!Cpus.empty())
    pinTo(Cpus);
}

void CpuRotation::next() {
  if (Cpus.size() < 2)
    return;
  if (!pinTo({Cpus[Turn % Cpus.size()]}))
    Cpus.clear(); // affinity is not settable here: stay where we are
  ++Turn;
}

CpuPin::CpuPin(size_t N) : Original(allowedCpus()) {
  if (Original.size() <= N)
    return;
  std::vector<int> First(Original.begin(), Original.begin() + N);
  if (pinTo(First))
    Count = N;
}

CpuPin::~CpuPin() {
  if (Count != Original.size() && !Original.empty())
    pinTo(Original);
}
