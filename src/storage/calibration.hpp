// Canonical device parameter sets calibrated against the paper's Table II.
//
// The paper's testbed used an HP MM0500FAMYT 7200-RPM SAS disk and an HP
// MK0120EAVDT 120 GB SATA SSD.  We do not model those exact drives; we pick
// model parameters so the simulated devices reproduce Table II's sequential
// rates exactly and its sequential-vs-random ordering and read-vs-write
// asymmetry.  `bench_paper table2` regenerates the table from the models
// and tests/storage pin these calibrations with tolerances.
#pragma once

#include "storage/hdd.hpp"
#include "storage/ssd.hpp"

namespace ibridge::storage {

/// HDD model matching the paper's data-server disk (Table II column 2).
inline HddParams paper_hdd() {
  HddParams p;
  p.capacity_bytes = 1'000LL * 1000 * 1000 * 1000;  // 1 TB
  p.seq_read_bw = 85e6;
  p.seq_write_bw = 80e6;
  return p;
}

/// SSD model matching the paper's data-server SSD (Table II column 1).
inline SsdParams paper_ssd() {
  SsdParams p;
  p.capacity_bytes = 120LL * 1000 * 1000 * 1000;  // 120 GB
  p.seq_read_bw = 160e6;
  p.seq_write_bw = 140e6;
  return p;
}

}  // namespace ibridge::storage
