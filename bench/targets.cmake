# Included from the top-level CMakeLists (not add_subdirectory) so that
# ${CMAKE_BINARY_DIR}/bench contains only the bench executables and
# `for b in build/bench/*; do $b; done` runs clean.
function(idde_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cpp)
  target_link_libraries(${name} PRIVATE idde_sim)
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

function(idde_gbench name)
  idde_bench(${name})
  target_link_libraries(${name} PRIVATE benchmark::benchmark)
endfunction()

idde_bench(fig1_motivation)
idde_bench(fig3_servers)
idde_bench(fig4_users)
idde_bench(fig5_data)
idde_bench(fig6_density)
idde_bench(fig7_time)
idde_gbench(ablation_greedy)
idde_gbench(ablation_sinr)
idde_gbench(ablation_game_rules)

# Engine microbenchmarks (BENCH_*.json trajectories).
idde_bench(perf_game)
target_link_libraries(perf_game PRIVATE idde_game_oracle)
idde_bench(perf_kernels)

# Extension benches (paper future work).
idde_bench(ext_mobility)
target_link_libraries(ext_mobility PRIVATE idde_dynamic)
idde_bench(theory_checks)
idde_bench(ablation_propagation)
idde_bench(ext_refinement)
idde_bench(ext_contention)
target_link_libraries(ext_contention PRIVATE idde_des)
idde_bench(ext_resilience)
target_link_libraries(ext_resilience PRIVATE idde_des idde_fault)
idde_bench(ext_overload)
target_link_libraries(ext_overload PRIVATE idde_des idde_fault idde_qos idde_dynamic)
idde_bench(ext_serve)
target_link_libraries(ext_serve PRIVATE idde_serve)
idde_bench(ext_coding)
target_link_libraries(ext_coding PRIVATE idde_des idde_fault idde_coding)
idde_bench(ext_gray)
target_link_libraries(ext_gray PRIVATE idde_des idde_fault)
