#!/usr/bin/env bash
# Repo verification: tier-1 build+tests, warnings-clean (-Werror) builds of
# the library and tests, and of the library with the stubs, and the
# batch-runtime determinism demo.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: configure, build, ctest =="
cmake -B build -S .
cmake --build build -j
(cd build && ctest --output-on-failure -j)

echo "== warnings-clean library and test build (-Wall -Wextra -Werror) =="
# Builds the test suites too (build only: tier-1 above already ran them).
cmake -B build-werror -S . -DXR_WERROR=ON \
      -DXR_BUILD_BENCH=OFF -DXR_BUILD_EXAMPLES=OFF
cmake --build build-werror -j

echo "== warnings-clean stub build (-Werror + XR_OBS_DISABLED + XR_FAULT_DISABLED) =="
# The stubbed configuration must stay warning-free too: every obs handle
# compiles to an inline no-op stub and every failpoint consult to an
# inline nullopt stub, and instrumented call sites must not trip
# -Wunused under either. One tree carries both, as in the
# zero-perturbation gate.
cmake -B build-werror-stubs -S . -DXR_WERROR=ON \
      -DXR_OBS_DISABLED=ON -DXR_FAULT_DISABLED=ON \
      -DXR_BUILD_TESTS=OFF -DXR_BUILD_BENCH=OFF -DXR_BUILD_EXAMPLES=OFF
cmake --build build-werror-stubs -j

echo "== batch runtime: serial vs parallel determinism =="
./build/batch_sweep > /dev/null
(cd build && ./fig4f_roi > /dev/null && cat bench/out/BENCH_fig4f_roi.json)

# The script gates already ran above: ctest executes each
# scripts/<name>.sh as the registered test `scripts.<name>`:
#   sweep_sharded          K workers + merge == monolithic (analytical)
#   sweep_gt_sharded       the same law for the ground-truth evaluator
#   sweep_offload_plan     the unified-request offload-plan law
#   sweep_adaptive         two-pass adaptive sweeps == one AdaptiveSweep run
#   sweep_service          the elastic service through churn and kill -9
#   obs_zero_perturbation  default build == obs + fault stub build, bitwise
#   sweep_service_chaos    fault injection and quarantine in the service

echo "verify.sh: OK"
