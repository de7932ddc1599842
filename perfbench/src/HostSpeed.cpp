//===- HostSpeed.cpp - the host's speed, sampled through a run ------------===//
//
// Part of the BARRACUDA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "HostSpeed.h"

#include "Spans.h"

#include <algorithm>
#include <ctime>

namespace perfbench {

namespace {

/// Keeps the compiler from dropping the burst's work.
volatile uint64_t Sink;

/// CPU time of the calling thread, in ns.
uint64_t threadCpuNs() {
  timespec T;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &T);
  return static_cast<uint64_t>(T.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(T.tv_nsec);
}

/// One burst: integer, branch and L1-resident table work of the kind an
/// interpreter does, about 1 ms on the development host. Returns the
/// CPU time it took, in ns: time the thread spent descheduled, for
/// instance behind the program's own threads, does not count, so a
/// program that kept more threads busy would not move the factor.
uint64_t burst() {
  static uint32_t Table[4096];
  uint64_t T0 = threadCpuNs();
  uint64_t X = 0x9E3779B97F4A7C15ull, Acc = 0;
  for (unsigned I = 0; I != 100000; ++I) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    uint32_t &Cell = Table[X & 4095];
    switch (X >> 61) {
    case 0: Acc += Cell; break;
    case 1: Cell = Cell * 2654435761u + I; break;
    case 2: Acc ^= Cell >> 3; break;
    case 3: Cell += static_cast<uint32_t>(Acc); break;
    default: Acc += X >> 7; break;
    }
  }
  Sink = Acc;
  return threadCpuNs() - T0;
}

} // namespace

HostSpeed::HostSpeed() : StartNs(nowNs()) {}

void HostSpeed::sample(unsigned N) {
  for (unsigned I = 0; I != N; ++I) {
    uint64_t T0 = nowNs();
    BurstNs.push_back(static_cast<double>(burst()));
    SpentNs += nowNs() - T0;
  }
}

void HostSpeed::keepUp() {
  while (static_cast<double>(SpentNs) <
         Share * static_cast<double>(nowNs() - StartNs))
    sample(1);
}

double HostSpeed::factor() const {
  if (BurstNs.empty())
    return 1;
  std::vector<double> Sorted = BurstNs;
  std::sort(Sorted.begin(), Sorted.end());
  size_t Trim = Sorted.size() / 10;
  double Sum = 0;
  for (size_t I = Trim; I != Sorted.size() - Trim; ++I)
    Sum += Sorted[I];
  return NominalBurstNs /
         (Sum / static_cast<double>(Sorted.size() - 2 * Trim));
}

Summary HostSpeed::burstsUs() const {
  std::vector<double> Us;
  for (double Ns : BurstNs)
    Us.push_back(Ns * 1e-3);
  return summarise(Us);
}

HostSpeed &hostSpeed() {
  static HostSpeed Speed;
  return Speed;
}

} // namespace perfbench
