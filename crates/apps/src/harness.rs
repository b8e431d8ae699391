//! The application harness: assembles FPGA app + Vidi shim + host
//! environment into a runnable simulation, exactly mirroring the paper's
//! methodology (§5.1): every run interposes Vidi on **all five** F1
//! interfaces (25 channels) regardless of how many the application uses,
//! which is the paper's worst-case configuration.

use std::fmt;

use vidi_chan::{AxiChannel, AxiIface, Channel, Direction, F1Interface};
use vidi_core::{
    DriveSession, FaultInjection, SessionCursor, Stop, StopReason, VidiConfig, VidiShim,
};
use vidi_host::{CpuHandle, CpuThread, HostMemSubordinate, HostMemory, HostOp};
use vidi_hwsim::{SignalId, SimError, SimStats, Simulator};
use vidi_trace::Trace;

use crate::kernel::Kernel;
use crate::shell::AccelShell;

/// One CPU thread of an application's software side.
pub struct ThreadSpec {
    /// Thread name.
    pub name: String,
    /// Script to execute.
    pub ops: Vec<HostOp>,
    /// Cycle at which the thread starts running.
    pub start_at: u64,
    /// Maximum random inter-op think time.
    pub jitter: u64,
}

/// A verification function over (host memory, FPGA DRAM, CPU results).
pub type CheckFn = Box<dyn Fn(&HostMemory, &HostMemory, &[CpuHandle]) -> Result<(), String>>;

/// Builds a kernel given the shell's on-FPGA DRAM handle (kernels that do
/// not touch DRAM simply ignore it).
pub type KernelFactory = Box<dyn FnOnce(HostMemory) -> Box<dyn Kernel>>;

/// Everything needed to run one application workload.
pub struct AppSetup {
    /// Application name (Table 1 row label).
    pub name: &'static str,
    /// Builds the compute kernel over the FPGA DRAM handle.
    pub kernel: KernelFactory,
    /// CPU threads (software side).
    pub threads: Vec<ThreadSpec>,
    /// Output correctness check, run after completion.
    pub check: CheckFn,
    /// Pre-loaded FPGA DRAM contents (address, bytes), if any.
    pub fpga_dram_init: Vec<(u64, Vec<u8>)>,
    /// Seed for host-side latency jitter.
    pub seed: u64,
}

impl fmt::Debug for AppSetup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AppSetup")
            .field("name", &self.name)
            .field("threads", &self.threads.len())
            .finish()
    }
}

/// A fully assembled simulation, ready to run.
pub struct BuiltApp {
    /// The simulator holding every component.
    pub sim: Simulator,
    /// The installed Vidi shim.
    pub shim: VidiShim,
    /// CPU thread result handles (empty in replay modes).
    pub cpu: Vec<CpuHandle>,
    /// CPU-side DRAM (pcim writes land here).
    pub host_mem: HostMemory,
    /// On-FPGA DRAM (pcis writes/reads go here).
    pub fpga_dram: HostMemory,
    /// The interrupt line from the shell.
    pub irq: SignalId,
    /// Verification function from the setup.
    pub check: CheckFn,
    /// Application name.
    pub name: &'static str,
    /// Every VALID/READY channel crossing the CPU↔FPGA boundary (the
    /// channels handed to the shim). Static lint compares this inventory
    /// against the shim's trace layout to prove monitored-boundary
    /// completeness.
    pub app_channels: Vec<(Channel, Direction)>,
}

impl DriveSession for BuiltApp {
    fn sim(&mut self) -> &mut Simulator {
        &mut self.sim
    }
    fn shim(&self) -> &VidiShim {
        &self.shim
    }
}

/// The outcome of a completed run.
#[derive(Debug)]
pub struct RunOutcome {
    /// Application name.
    pub name: &'static str,
    /// Cycles until the workload completed (excluding trace-flush margin).
    pub cycles: u64,
    /// The recorded trace, in recording modes.
    pub trace: Option<Trace>,
    /// Raw trace body bytes written to storage.
    pub trace_bytes: u64,
    /// Cycles during which recording back-pressure denied a request.
    pub backpressure_cycles: u64,
    /// High-water mark of bytes buffered in the streaming trace sink — the
    /// bounded-memory witness of the chunked trace path (stays O(chunk
    /// size) no matter how long the run records).
    pub peak_buffered_bytes: u64,
    /// Trace chunks flushed to the store backend during the run.
    pub chunks_flushed: u64,
    /// Exact length of the recorded chunk stream in bytes — the compressed
    /// length when the run records through a block codec, so the ratio of
    /// [`RunOutcome::trace_bytes`] to this is the achieved compression.
    pub bytes_written: u64,
    /// Recorded stream bytes per workload cycle — the storage bandwidth the
    /// run actually consumed (compression lowers it; see
    /// [`RunOutcome::bytes_written`]).
    pub bytes_per_cycle: f64,
    /// Poll reads issued by the CPU side.
    pub polls: u64,
    /// The run's output check passed.
    pub output_ok: Result<(), String>,
    /// Host memory after the run.
    pub host_mem: HostMemory,
    /// Scheduler performance counters accumulated over the whole run
    /// (including the trace-flush margin); see [`vidi_hwsim::SimStats`].
    pub sim_stats: SimStats,
}

/// Builds the full simulation for an application under a Vidi
/// configuration.
pub fn build_app(setup: AppSetup, vidi: VidiConfig) -> BuiltApp {
    build_app_with_faults(setup, vidi, FaultInjection::none())
}

/// [`build_app`], with deterministic fault injection wired into the shim's
/// engine — the entry point for robustness harnesses (see the `vidi-faults`
/// crate and the fault-matrix soak test).
pub fn build_app_with_faults(
    setup: AppSetup,
    vidi: VidiConfig,
    faults: FaultInjection,
) -> BuiltApp {
    let mut sim = Simulator::new();
    let replaying = vidi.mode.replays();

    // Application-side interfaces for all five F1 buses (paper worst case).
    let ifaces: Vec<AxiIface> = F1Interface::ALL
        .iter()
        .map(|f| f.instantiate(sim.pool_mut()))
        .collect();
    let app_channels: Vec<(Channel, Direction)> = ifaces
        .iter()
        .flat_map(vidi_chan::AxiIface::channels_with_direction)
        .collect();

    let shim =
        VidiShim::install_with_faults(&mut sim, &app_channels, vidi, faults).expect("shim install");

    // Environment-side interface views over the shim's channels.
    let env_ifaces: Vec<AxiIface> = ifaces
        .iter()
        .map(|i| {
            let chans: Vec<Channel> = AxiChannel::ALL
                .iter()
                .map(|&c| {
                    shim.env_channel(i.channel(c).name())
                        .expect("env channel exists")
                        .clone()
                })
                .collect();
            AxiIface::from_channels(format!("env.{}", i.name()), i.kind(), i.role(), chans)
        })
        .collect();

    let by_name = |name: &str, list: &[AxiIface]| -> AxiIface {
        list.iter()
            .find(|i| i.name().ends_with(name))
            .expect("interface exists")
            .clone()
    };
    let ocl_app = by_name("ocl", &ifaces);
    let pcis_app = by_name("pcis", &ifaces);
    let pcim_app = by_name("pcim", &ifaces);
    let ocl_env = by_name("ocl", &env_ifaces);
    let pcis_env = by_name("pcis", &env_ifaces);
    let pcim_env = by_name("pcim", &env_ifaces);

    let irq = sim.pool_mut().add("irq", 1);
    let fpga_dram = HostMemory::new();
    for (addr, bytes) in &setup.fpga_dram_init {
        fpga_dram.write(*addr, bytes);
    }
    let host_mem = HostMemory::new();

    let kernel = (setup.kernel)(fpga_dram.clone());
    sim.add_component(AccelShell::new(
        format!("shell.{}", setup.name),
        &ocl_app,
        &pcis_app,
        &pcim_app,
        Some(irq),
        fpga_dram.clone(),
        kernel,
    ));

    let mut cpu_handles = Vec::new();
    if !replaying {
        // Each AXI channel has exactly one sender and one receiver; threads
        // would contend for the same wires, so the generic harness supports
        // a single software thread (multi-thread case studies wire their
        // own interfaces, e.g. `echo_fifo`).
        assert_eq!(
            setup.threads.len(),
            1,
            "generic harness drives ocl+pcis from one thread"
        );
        // Host memory subordinate behind the env side of pcim.
        let pcim_chans: [Channel; 5] = AxiChannel::ALL.map(|c| pcim_env.channel(c).clone());
        sim.add_component(HostMemSubordinate::new(
            "host.pcim",
            pcim_chans,
            host_mem.clone(),
            setup.seed ^ 0x9e37_79b9,
            (3, 20),
        ));
        for (i, t) in setup.threads.into_iter().enumerate() {
            let (mut thread, handle) = CpuThread::new(
                t.name,
                t.ops,
                setup.seed.wrapping_add(i as u64 * 7919),
                t.start_at,
                t.jitter,
            );
            thread.attach_lite("ocl", &ocl_env);
            thread.attach_dma("pcis", &pcis_env);
            thread.attach_irq(irq);
            sim.add_component(thread);
            cpu_handles.push(handle);
        }
    }

    BuiltApp {
        sim,
        shim,
        cpu: cpu_handles,
        host_mem,
        fpga_dram,
        irq,
        check: setup.check,
        name: setup.name,
        app_channels,
    }
}

/// Runs a built application to completion.
///
/// In recording/transparent modes, completion means every CPU thread
/// finished its script; in replay modes it means the replay engine drained.
/// A trace-flush margin is run afterwards so the store finishes writing.
///
/// # Errors
///
/// Returns [`SimError::Timeout`] if the workload does not complete within
/// `max_cycles` — which is how deadlocks (e.g. a mutated-trace replay
/// against a buggy design, §5.3) are detected and reported.
pub fn run_app(mut built: BuiltApp, max_cycles: u64) -> Result<RunOutcome, SimError> {
    let replaying = built.cpu.is_empty();
    let cycles = if replaying {
        let mut cursor = SessionCursor::new(&mut built);
        let ev = cursor.run_until(Stop::replay_complete().with_budget(max_cycles))?;
        if ev.reason != StopReason::ReplayComplete {
            let progress = built.shim.replay_progress();
            let stalled = built.shim.replay_stalled().join(", ");
            return Err(SimError::Timeout {
                cycle: ev.advanced,
                waiting_for: format!("replay completion ({progress} packets; stalled: {stalled})"),
                diagnostics: built.sim.diagnostics(),
            });
        }
        ev.advanced
    } else {
        let mut cursor = SessionCursor::new(&mut built);
        let ev = cursor.run_until(
            Stop::when(|b: &mut BuiltApp| b.cpu.iter().all(|h| h.borrow().finished))
                .or_at_cycle(max_cycles)
                .check_every(1),
        )?;
        if ev.reason != StopReason::PredicateTrue {
            return Err(SimError::Timeout {
                cycle: ev.cycle,
                waiting_for: "all CPU threads to finish".to_string(),
                diagnostics: built.sim.diagnostics(),
            });
        }
        ev.cycle
    };
    // Flush margin for the trace store.
    built.sim.run(vidi_core::drive::FLUSH_MARGIN)?;

    let stats = built.shim.stats();
    let output_ok = (built.check)(&built.host_mem, &built.fpga_dram, &built.cpu);
    Ok(RunOutcome {
        name: built.name,
        cycles,
        trace: built.shim.recorded_trace(),
        trace_bytes: built.shim.recorded_bytes(),
        backpressure_cycles: stats.backpressure_cycles,
        peak_buffered_bytes: stats.peak_buffered_bytes,
        chunks_flushed: stats.chunks_flushed,
        bytes_written: stats.bytes_written,
        bytes_per_cycle: if cycles == 0 {
            0.0
        } else {
            stats.bytes_written as f64 / cycles as f64
        },
        polls: built.cpu.iter().map(|h| h.borrow().polls_issued).sum(),
        output_ok,
        host_mem: built.host_mem,
        sim_stats: built.sim.stats().clone(),
    })
}
