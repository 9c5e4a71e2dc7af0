//! Property tests for the simulator: differential execution of ALU
//! programs against a host-side reference interpreter, determinism, and
//! liveness of arbitrary straight-line programs.

use gpgpu_isa::{Instr, Program, Reg, NUM_REGS};
use gpgpu_sim::{Device, FamilyModel, KernelSpec, LatencyTable, OpClass};
use gpgpu_spec::{presets, Family, LaunchConfig};
use proptest::prelude::*;

/// A host-side reference interpreter for the ALU/result subset of the ISA.
fn reference_execute(program: &Program, grid_blocks: u64) -> Vec<u64> {
    let mut regs = [0u64; NUM_REGS as usize];
    regs[(NUM_REGS - 1) as usize] = grid_blocks;
    let mut out = Vec::new();
    let mut pc = 0u32;
    let mut steps = 0;
    loop {
        steps += 1;
        assert!(steps < 100_000, "reference interpreter ran away");
        match *program.fetch(pc) {
            Instr::MovImm { rd, imm } => regs[rd.0 as usize] = imm,
            Instr::Mov { rd, rs } => regs[rd.0 as usize] = regs[rs.0 as usize],
            Instr::Add { rd, ra, rb } => {
                regs[rd.0 as usize] = regs[ra.0 as usize].wrapping_add(regs[rb.0 as usize])
            }
            Instr::Sub { rd, ra, rb } => {
                regs[rd.0 as usize] = regs[ra.0 as usize].wrapping_sub(regs[rb.0 as usize])
            }
            Instr::AddImm { rd, ra, imm } => {
                regs[rd.0 as usize] = regs[ra.0 as usize].wrapping_add(imm)
            }
            Instr::MulImm { rd, ra, imm } => {
                regs[rd.0 as usize] = regs[ra.0 as usize].wrapping_mul(imm)
            }
            Instr::AndImm { rd, ra, imm } => regs[rd.0 as usize] = regs[ra.0 as usize] & imm,
            Instr::PushResult { value } => out.push(regs[value.0 as usize]),
            Instr::Branch { cond, a, b, target } => {
                let bv = match b {
                    gpgpu_isa::Operand::Reg(r) => regs[r.0 as usize],
                    gpgpu_isa::Operand::Imm(i) => i,
                };
                if cond.eval(regs[a.0 as usize], bv) {
                    pc = target;
                    continue;
                }
            }
            Instr::Jump { target } => {
                pc = target;
                continue;
            }
            Instr::Halt => return out,
            ref other => panic!("reference interpreter does not model {other}"),
        }
        pc += 1;
    }
}

/// Strategy: a structured random ALU program (straight-line body plus an
/// optional counted loop), guaranteed to terminate.
fn alu_program() -> impl Strategy<Value = Program> {
    (proptest::collection::vec((0u8..7, 0u16..8, 0u16..8, any::<u64>()), 1..40), 1u64..6).prop_map(
        |(body, loop_count)| {
            let mut b = gpgpu_isa::ProgramBuilder::new();
            b.repeat(Reg(15), loop_count, |b| {
                for &(op, rd, ra, imm) in &body {
                    let (rd, ra) = (Reg(rd), Reg(ra));
                    match op {
                        0 => {
                            b.mov_imm(rd, imm);
                        }
                        1 => {
                            b.mov(rd, ra);
                        }
                        2 => {
                            b.add(rd, ra, rd);
                        }
                        3 => {
                            b.sub(rd, ra, rd);
                        }
                        4 => {
                            b.add_imm(rd, ra, imm);
                        }
                        5 => {
                            b.mul_imm(rd, ra, imm);
                        }
                        _ => {
                            b.and_imm(rd, ra, imm);
                        }
                    }
                }
                b.push_result(Reg(0));
            });
            b.build().expect("generated program assembles")
        },
    )
}

fn run_on_device(program: &Program, blocks: u32) -> (Vec<u64>, u64) {
    let mut dev = Device::new(presets::tesla_k40c());
    let k = dev
        .launch(0, KernelSpec::new("prop", program.clone(), LaunchConfig::new(blocks, 32)))
        .expect("launch accepted");
    dev.run_until_idle(50_000_000).expect("program terminates");
    (dev.results(k).expect("complete").warp_results(0, 0).unwrap().to_vec(), dev.now())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// The simulator and the reference interpreter agree on every ALU
    /// program's architectural results.
    #[test]
    fn differential_alu_execution(program in alu_program()) {
        let (sim, _) = run_on_device(&program, 1);
        let reference = reference_execute(&program, 1);
        prop_assert_eq!(sim, reference);
    }

    /// Execution is fully deterministic: same program, same results, same
    /// cycle count.
    #[test]
    fn execution_is_deterministic(program in alu_program(), blocks in 1u32..8) {
        let (r1, c1) = run_on_device(&program, blocks);
        let (r2, c2) = run_on_device(&program, blocks);
        prop_assert_eq!(r1, r2);
        prop_assert_eq!(c1, c2);
    }

    /// Every block of every grid runs the same program to completion and
    /// pushes the same architectural results.
    #[test]
    fn all_blocks_agree(program in alu_program()) {
        let mut dev = Device::new(presets::tesla_k40c());
        let k = dev
            .launch(0, KernelSpec::new("p", program.clone(), LaunchConfig::new(5, 32)))
            .unwrap();
        dev.run_until_idle(50_000_000).unwrap();
        let r = dev.results(k).unwrap();
        let first = r.warp_results(0, 0).unwrap().to_vec();
        for blk in 1..5 {
            prop_assert_eq!(r.warp_results(blk, 0).unwrap(), first.as_slice());
        }
    }

    /// `reset_for_trial` is observationally a fresh device: after dirtying a
    /// device with one arbitrary run (and allocations, jitter and stats),
    /// resetting it and replaying a second arbitrary program yields exactly
    /// the results, clock, kernel table and engine counters of a brand-new
    /// `Device::new` running the same program.
    #[test]
    fn reset_for_trial_is_a_fresh_device(
        dirty in alu_program(),
        replay in alu_program(),
        blocks in 1u32..6,
    ) {
        let mut dev = Device::new(presets::tesla_k40c());
        dev.alloc_constant(4096);
        dev.alloc_global(1 << 16);
        dev.set_launch_jitter(64, 0xD1);
        dev.launch(0, KernelSpec::new("dirty", dirty, LaunchConfig::new(blocks, 32))).unwrap();
        dev.run_until_idle(50_000_000).unwrap();
        dev.reset_for_trial();

        let observe = |dev: &mut Device| {
            let k = dev
                .launch(0, KernelSpec::new("replay", replay.clone(), LaunchConfig::new(blocks, 32)))
                .unwrap();
            dev.run_until_idle(50_000_000).unwrap();
            let r = dev.results(k).unwrap();
            (r.flat_results(), r.completed_at, dev.now(), dev.kernel_names(), *dev.stats())
        };
        let reused = observe(&mut dev);
        let fresh = observe(&mut Device::new(presets::tesla_k40c()));
        prop_assert_eq!(reused, fresh);
    }

    /// Restoring a pristine snapshot is equally indistinguishable from a
    /// fresh device — the other half of the pooling contract.
    #[test]
    fn pristine_snapshot_restore_is_a_fresh_device(
        dirty in alu_program(),
        replay in alu_program(),
    ) {
        let mut dev = Device::new(presets::tesla_k40c());
        let pristine = dev.snapshot().unwrap();
        dev.alloc_constant(4096);
        dev.launch(0, KernelSpec::new("dirty", dirty, LaunchConfig::new(2, 32))).unwrap();
        dev.run_until_idle(50_000_000).unwrap();
        dev.restore(&pristine).unwrap();

        let observe = |dev: &mut Device| {
            let k = dev
                .launch(0, KernelSpec::new("replay", replay.clone(), LaunchConfig::new(2, 32)))
                .unwrap();
            dev.run_until_idle(50_000_000).unwrap();
            (dev.results(k).unwrap().flat_results(), dev.now(), *dev.stats())
        };
        let restored = observe(&mut dev);
        let fresh = observe(&mut Device::new(presets::tesla_k40c()));
        prop_assert_eq!(restored, fresh);
    }
}

/// Any finite `f64`, from an arbitrary bit pattern (the table grammar
/// round-trips every finite value; NaN has no equality to round-trip).
fn finite(bits: u64) -> f64 {
    let v = f64::from_bits(bits);
    if v.is_finite() {
        v
    } else {
        (bits >> 11) as f64
    }
}

/// An arbitrary characterized table: any subset of op rows and family
/// models, with arbitrary finite numbers.
fn latency_table() -> impl Strategy<Value = LatencyTable> {
    let ops = proptest::collection::vec(any::<u64>(), OpClass::ALL.len());
    let models = proptest::collection::vec(
        (any::<u32>(), proptest::collection::vec(any::<u64>(), 7)),
        Family::ALL.len(),
    );
    (any::<u16>(), any::<u64>(), ops, models).prop_map(|(device, mask, ops, models)| {
        let mut t = LatencyTable::new(format!("dev{device}"));
        for (i, class) in OpClass::ALL.into_iter().enumerate() {
            if mask >> i & 1 == 1 {
                t.set_op(class, finite(ops[i]));
            }
        }
        for (i, family) in Family::ALL.into_iter().enumerate() {
            if mask >> (16 + i) & 1 == 1 {
                let (knob, v) = &models[i];
                t.set_family(FamilyModel {
                    family,
                    knob: format!("knob_{knob}"),
                    fixed: finite(v[0]),
                    base: finite(v[1]),
                    slope: finite(v[2]),
                    knob_lo: finite(v[3]),
                    knob_hi: finite(v[4]),
                    err_sat: finite(v[5]),
                    err_knee: finite(v[6]),
                });
            }
        }
        t
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// The latency-table grammar round-trips every table exactly.
    #[test]
    fn latency_tables_round_trip(t in latency_table()) {
        prop_assert_eq!(LatencyTable::from_spec(&t.to_spec()), Ok(t));
    }
}
