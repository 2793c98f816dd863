package main

// metricDef names one metric the command prints. BENCHMARK.json lists
// exactly these names, units and directions (TestBenchmarkJSONMatches).
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
}

// endToEnd are the metrics a user of the system would see, the same five
// on every workload, all from the untraced run. bound is the share of the
// parent's median by which the metric may get worse before a change is a
// regression; README.md records how each was calibrated.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"mlups_rel", "ratio", "higher", 0.25},
	{"run_rel", "ratio", "lower", 0.25},
	{"mem_mb", "MB", "lower", 0.03},
	{"ok_share", "ratio", "higher", 0.001},
}

// perLayer are the metrics of single layers, from the traced run. Names
// start with the package the number belongs to. None is gated.
var perLayer = []metricDef{
	{name: "lattice.equilibrium_ns", unit: "ns", better: "lower"},
	{name: "lattice.guoforce_ns", unit: "ns", better: "lower"},
	{name: "lattice.moments_ns", unit: "ns", better: "lower"},

	{name: "core.k1_bending_ms", unit: "ms", better: "lower"},
	{name: "core.k2_stretching_ms", unit: "ms", better: "lower"},
	{name: "core.k3_elastic_ms", unit: "ms", better: "lower"},
	{name: "core.k4_spread_ms", unit: "ms", better: "lower"},
	{name: "core.k5_collide_ms", unit: "ms", better: "lower"},
	{name: "core.k6_stream_ms", unit: "ms", better: "lower"},
	{name: "core.k7_update_ms", unit: "ms", better: "lower"},
	{name: "core.k8_move_ms", unit: "ms", better: "lower"},
	{name: "core.k9_copy_ms", unit: "ms", better: "lower"},
	{name: "core.collide_ns_node", unit: "ns", better: "lower"},
	{name: "core.stream_ns_node", unit: "ns", better: "lower"},
	{name: "core.bytes_node_computed", unit: "B", better: "lower"},
	{name: "core.roofline_pct", unit: "%", better: "higher"},

	{name: "fiber.bending_ns_node", unit: "ns", better: "lower"},
	{name: "fiber.stretching_ns_node", unit: "ns", better: "lower"},
	{name: "ibm.stencil_ns", unit: "ns", better: "lower"},
	{name: "ibm.spread_ns_node", unit: "ns", better: "lower"},
	{name: "ibm.interpolate_ns_node", unit: "ns", better: "lower"},

	{name: "cubesolver.step_ms_p50", unit: "ms", better: "lower"},
	{name: "cubesolver.par_eff_2t", unit: "ratio", better: "higher"},
	{name: "cubesolver.cpu_ms_step", unit: "ms", better: "lower"},
	{name: "taskflow.step_ms_p50", unit: "ms", better: "lower"},
	{name: "par.barrier_ns", unit: "ns", better: "lower"},
	{name: "omp.step_ms_p50", unit: "ms", better: "lower"},
	{name: "omp.par_eff_2t", unit: "ratio", better: "higher"},
	{name: "fused.step_ms_p50", unit: "ms", better: "lower"},
	{name: "fused.par_eff_2t", unit: "ratio", better: "higher"},
	{name: "fused.f32_step_ms_p50", unit: "ms", better: "lower"},

	{name: "lbmib.mlups", unit: "1e6/s", better: "higher"},
	{name: "lbmib.step_ms_p50", unit: "ms", better: "lower"},
	{name: "lbmib.step_ms_p95", unit: "ms", better: "lower"},
	{name: "lbmib.observe_overhead_pct", unit: "%", better: "lower"},
	{name: "flightrec.snapshot_step_ms", unit: "ms", better: "lower"},
	{name: "grid.digest_ms", unit: "ms", better: "lower"},
	{name: "output.fluid_vtk_s", unit: "s", better: "lower"},
	{name: "output.fluid_vtk_mb", unit: "MB", better: "lower"},
	{name: "output.sheet_vtk_ms", unit: "ms", better: "lower"},
	{name: "lbmib.checkpoint_s", unit: "s", better: "lower"},
	{name: "lbmib.checkpoint_mb", unit: "MB", better: "lower"},
	{name: "lbmib.restore_s", unit: "s", better: "lower"},

	{name: "lbmib.new_ms", unit: "ms", better: "lower"},
	{name: "grid.new_ms", unit: "ms", better: "lower"},
	{name: "cube.fromgrid_ms", unit: "ms", better: "lower"},
	{name: "cube.togrid_ms", unit: "ms", better: "lower"},
	{name: "grid.bytes_node", unit: "B", better: "lower"},

	{name: "machine.triad_gbs", unit: "GB/s", better: "higher"},
	{name: "bench.ref_mlups", unit: "1e6/s", better: "higher"},
	{name: "bench.ref_linf", unit: "abs", better: "lower"},
	{name: "bench.mass_drift", unit: "ratio", better: "lower"},
	{name: "bench.trace_overhead_pct", unit: "%", better: "lower"},
}
