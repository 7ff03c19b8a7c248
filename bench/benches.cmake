# Figure/table reproduction benches (plain executables printing the paper's
# rows/series) plus google-benchmark micro benches. All binaries land in
# ${CMAKE_BINARY_DIR}/bench with nothing else, so the whole harness runs as
#   for b in build/bench/*; do $b; done

function(ff_add_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cpp)
  target_link_libraries(${name} PRIVATE ${ARGN})
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

ff_add_bench(fig2_gwas_paste ff_gwas ff_cheetah)
ff_add_bench(fig3_ckpt_overhead ff_ckpt)
ff_add_bench(fig4_ckpt_variation ff_ckpt)
ff_add_bench(fig5_stream_policies ff_stream)
target_compile_definitions(fig5_stream_policies PRIVATE
  FF_REPO_ROOT="${CMAKE_SOURCE_DIR}" FF_BUILD_TYPE="${CMAKE_BUILD_TYPE}")
ff_add_bench(fig6_irf_timeline ff_savanna ff_irf)
ff_add_bench(fig7_irf_campaign ff_savanna ff_cheetah ff_irf)
ff_add_bench(tab1_gauge_assessment ff_core ff_gwas)
ff_add_bench(ablation_ckpt_restart ff_ckpt ff_cluster)
ff_add_bench(ablation_codesign ff_cheetah ff_gwas)
ff_add_bench(campaign_scale ff_savanna ff_cheetah)
target_compile_definitions(campaign_scale PRIVATE
  FF_REPO_ROOT="${CMAKE_SOURCE_DIR}" FF_BUILD_TYPE="${CMAKE_BUILD_TYPE}")
ff_add_bench(lint_scale ff_lint)
ff_add_bench(service_throughput ff_service)
ff_add_bench(micro_bench ff_util ff_skel ff_stream ff_cluster ff_irf ff_gwas
             benchmark::benchmark benchmark::benchmark_main)

# `cmake --build build --target bench_irf` reruns the iRF engine micro
# benches (forest fit + full iRF-LOOP sweeps) and refreshes BENCH_irf.json
# at the repo root — the committed record of engine performance.
add_custom_target(bench_irf
  COMMAND $<TARGET_FILE:micro_bench>
          "--benchmark_filter=BM_ForestFit|BM_IrfLoop"
          --benchmark_out=${CMAKE_SOURCE_DIR}/BENCH_irf.json
          --benchmark_out_format=json
  DEPENDS micro_bench
  COMMENT "iRF engine benches -> BENCH_irf.json"
  VERBATIM)

# `cmake --build build --target bench_stream` reruns the Fig. 5 concurrent
# data-plane bench (policy x worker-count grid, overflow tradeoffs) and
# refreshes BENCH_stream.json at the repo root. Because the bench binary is
# wired into the default build, bit-rot in the bench fails the build, not
# just this target.
add_custom_target(bench_stream
  COMMAND $<TARGET_FILE:fig5_stream_policies>
          ${CMAKE_SOURCE_DIR}/BENCH_stream.json
  DEPENDS fig5_stream_policies
  COMMENT "Fig. 5 stream data-plane bench -> BENCH_stream.json"
  VERBATIM)

# `cmake --build build --target bench_campaign` reruns the campaign-spine
# scale bench (lazy sweep submission, journal append modes, checkpointed
# resume and checkpoint write at 10^3/10^4/10^5 runs) and refreshes BENCH_campaign.json at the
# repo root — the committed record of how far the spine scales.
add_custom_target(bench_campaign
  COMMAND $<TARGET_FILE:campaign_scale>
          ${CMAKE_SOURCE_DIR}/BENCH_campaign.json
  DEPENDS campaign_scale
  COMMENT "campaign spine scale bench -> BENCH_campaign.json"
  VERBATIM)

# `cmake --build build --target bench_lint` reruns the workspace-lint scale
# bench (cold vs digest-cached re-lint of a generated 1000-artifact tree)
# and refreshes BENCH_lint.json at the repo root — the committed record of
# what the incremental cache buys.
add_custom_target(bench_lint
  COMMAND $<TARGET_FILE:lint_scale>
          ${CMAKE_SOURCE_DIR}/BENCH_lint.json
  DEPENDS lint_scale
  COMMENT "workspace lint scale bench -> BENCH_lint.json"
  VERBATIM)

# A ~2 s paced-throughput sanity check in the default ctest run: the
# threaded plane at 1 worker must not be slower than the synchronous
# scheduler (records/s within 10 %, p50 within 2x) — a cheap guard
# against handoff regressions in the channel or drain path.
# RUN_SERIAL: a latency measurement on a small host is meaningless while
# ctest runs other tests beside it.
add_test(NAME perf_smoke COMMAND fig5_stream_policies --smoke)
set_tests_properties(perf_smoke PROPERTIES
  LABELS perf-smoke TIMEOUT 120 RUN_SERIAL TRUE)

# Campaign-spine counterpart (best-of-3 at 10^4 runs): lazy submission,
# group-commit journal append, checkpointed resume and checkpoint write
# must each clear a floor ~10x below a plain build's measured rate — a guard against
# accidentally quadratic paths in the million-run spine, not a latency SLO.
add_test(NAME perf_smoke_campaign COMMAND campaign_scale --smoke)
set_tests_properties(perf_smoke_campaign PROPERTIES
  LABELS perf-smoke TIMEOUT 120 RUN_SERIAL TRUE)

# fairflowd counterpart: wire round-trips/s, submissions/s, and the
# 10^6-run submit-ack rate through the real Unix-socket server must clear
# floors ~10x under a plain build — a guard against a lock held across an
# allocation slice, a per-request allocation storm in the framing loop, or
# the lazy submit path regressing to materializing a million RunSpecs.
# RUN_SERIAL for the same reason as above: socket round-trip rates measured
# beside a parallel ctest run are noise.
add_test(NAME perf_smoke_service COMMAND service_throughput --smoke)
set_tests_properties(perf_smoke_service PROPERTIES
  LABELS perf-smoke TIMEOUT 120 RUN_SERIAL TRUE)

# `cmake --build build --target bench_service` reruns the fairflowd wire
# bench (ping round-trips and end-to-end campaign throughput at 1 and 4
# clients, idle-watcher scaling at 1/64/256/1024 subscribers, submit-ack
# latency at 10^5/10^6 runs) and refreshes BENCH_service.json at the repo
# root.
add_custom_target(bench_service
  COMMAND $<TARGET_FILE:service_throughput>
          ${CMAKE_SOURCE_DIR}/BENCH_service.json
  DEPENDS service_throughput
  COMMENT "fairflowd service wire bench -> BENCH_service.json"
  VERBATIM)
