// One-time preparation of the paper dataset the paper_refit workload
// reads: the paper-scale AMR campaign (seed 42, 600 rows) written as CSV.
// The campaign runs the physics solver for every configuration and takes
// minutes, so its output is kept under perfbench/data and never
// regenerated inside a benchmark run.
//
//   cmake --build <build-dir> --target prepare_paper_dataset
//   <build-dir>/prepare_paper_dataset perfbench/data/paper_amr_seed42.csv

#include <cstdio>

#include "alamr/amr/campaign.hpp"
#include "alamr/data/csv.hpp"

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: prepare_paper_dataset <out.csv>\n");
    return 2;
  }
  alamr::amr::CampaignOptions options;
  options.seed = 42;
  const auto records = alamr::amr::Campaign(options).run();
  alamr::data::write_csv(
      alamr::amr::Campaign::to_dataset(records, options.dataset_size), argv[1]);
  return 0;
}
