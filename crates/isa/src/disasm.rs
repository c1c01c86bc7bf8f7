//! Textual SASS-like listing format with a parser.
//!
//! The format mirrors how the paper's tooling consumes `cuobjdump` output:
//! a kernel header with resource footprints, block headers carrying trip
//! weights, and one instruction per line where a leading `+` marks the
//! Kepler dual-issue control bit.
//!
//! ```text
//! .kernel axpy tpb=256 regs=16 smem=0
//! .block weight=1024
//!     LDG
//!   + LDG
//!     FFMA
//!     STG
//!     BRA
//! ```

use crate::inst::{Instruction, Opcode};
use crate::kernel::{BasicBlock, Kernel};
use std::fmt::Write as _;

/// Render a kernel as a SASS-like listing.
pub fn disassemble(kernel: &Kernel) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        ".kernel {} tpb={} regs={} smem={}",
        kernel.name, kernel.threads_per_block, kernel.regs_per_thread, kernel.smem_per_block
    );
    for block in &kernel.blocks {
        let _ = writeln!(out, ".block weight={}", block.weight);
        for inst in &block.insts {
            let marker = if inst.dual_issue { "+" } else { " " };
            let _ = writeln!(out, "  {} {}", marker, inst.opcode);
        }
    }
    out
}

/// Parse a SASS-like listing back into a kernel.
pub fn parse(text: &str) -> Result<Kernel, String> {
    let mut name = None;
    let mut tpb = 0u32;
    let mut regs = 32u32;
    let mut smem = 0u32;
    let mut blocks: Vec<BasicBlock> = Vec::new();

    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with("//") || line.starts_with('#') {
            continue;
        }
        let err = |msg: String| format!("line {}: {msg}", lineno + 1);

        if let Some(rest) = line.strip_prefix(".kernel ") {
            let mut parts = rest.split_whitespace();
            name = Some(
                parts
                    .next()
                    .ok_or_else(|| err("missing kernel name".into()))?
                    .to_string(),
            );
            for kv in parts {
                let (key, val) = kv
                    .split_once('=')
                    .ok_or_else(|| err(format!("bad attribute `{kv}`")))?;
                let v: u32 = val.parse().map_err(|e| err(format!("{key}: {e}")))?;
                match key {
                    "tpb" => tpb = v,
                    "regs" => regs = v,
                    "smem" => smem = v,
                    other => return Err(err(format!("unknown attribute `{other}`"))),
                }
            }
        } else if let Some(rest) = line.strip_prefix(".block") {
            let weight = rest
                .trim()
                .strip_prefix("weight=")
                .ok_or_else(|| err("block header needs weight=".into()))?
                .parse::<f64>()
                .map_err(|e| err(format!("weight: {e}")))?;
            if !weight.is_finite() || weight < 0.0 {
                return Err(err("weight must be finite and non-negative".into()));
            }
            blocks.push(BasicBlock {
                insts: Vec::new(),
                weight,
            });
        } else {
            let block = blocks
                .last_mut()
                .ok_or_else(|| err("instruction before any .block".into()))?;
            let (dual, opstr) = match line.strip_prefix("+ ") {
                Some(rest) => (true, rest.trim()),
                None => (false, line),
            };
            if dual && block.insts.is_empty() {
                return Err(err("dual-issue flag on first instruction of block".into()));
            }
            let opcode: Opcode = opstr.parse().map_err(err)?;
            block.insts.push(Instruction {
                opcode,
                dual_issue: dual,
            });
        }
    }

    let name = name.ok_or("missing .kernel header")?;
    if tpb == 0 {
        return Err("kernel tpb must be positive".into());
    }
    if blocks.is_empty() || blocks.iter().all(|b| b.insts.is_empty()) {
        return Err("kernel has no instructions".into());
    }
    Ok(Kernel {
        name,
        threads_per_block: tpb,
        regs_per_thread: regs,
        smem_per_block: smem,
        blocks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Opcode::*;

    fn sample() -> Kernel {
        Kernel::builder("axpy", 256)
            .registers(16)
            .shared_memory(2048)
            .block(1.0, |b| b.inst(MOV).inst(IMAD))
            .block(1024.0, |b| {
                b.inst(LDG).dual(LDG).inst(FFMA).inst(STG).inst(BRA)
            })
            .build()
    }

    #[test]
    fn round_trip_preserves_kernel() {
        let k = sample();
        let text = disassemble(&k);
        let back = parse(&text).unwrap();
        assert_eq!(back, k);
    }

    #[test]
    fn round_trip_preserves_analysis() {
        let k = sample();
        let a1 = k.analyze();
        let a2 = parse(&disassemble(&k)).unwrap().analyze();
        assert_eq!(a1, a2);
    }

    #[test]
    fn parser_accepts_comments_and_blanks() {
        let text = "\
// a comment
.kernel k tpb=32 regs=8 smem=0

.block weight=2
  # another comment
    FFMA
  + FADD
";
        let k = parse(text).unwrap();
        assert_eq!(k.blocks.len(), 1);
        assert_eq!(k.blocks[0].insts.len(), 2);
        assert!(k.blocks[0].insts[1].dual_issue);
    }

    #[test]
    fn parser_rejects_unknown_opcode() {
        let text = ".kernel k tpb=32\n.block weight=1\n  FROB\n";
        assert!(parse(text).unwrap_err().contains("unknown opcode"));
    }

    #[test]
    fn parser_rejects_inst_before_block() {
        let text = ".kernel k tpb=32\n  FFMA\n";
        assert!(parse(text).unwrap_err().contains("before any .block"));
    }

    #[test]
    fn parser_rejects_leading_dual() {
        let text = ".kernel k tpb=32\n.block weight=1\n  + FFMA\n";
        assert!(parse(text).unwrap_err().contains("dual-issue"));
    }

    #[test]
    fn parser_rejects_missing_header() {
        assert!(parse(".block weight=1\n  FFMA\n").is_err());
        assert!(parse(".kernel k tpb=0\n.block weight=1\n  FFMA\n").is_err());
    }

    #[test]
    fn parser_reports_line_numbers() {
        let text = ".kernel k tpb=32\n.block weight=1\n  FFMA\n  JUNK\n";
        let e = parse(text).unwrap_err();
        assert!(e.starts_with("line 4:"), "{e}");
    }

    #[test]
    fn parser_rejects_non_finite_weight() {
        for weight in ["NaN", "inf", "-inf", "-1"] {
            let text = format!(".kernel k tpb=32\n.block weight={weight}\n  FFMA\n");
            let e = parse(&text).unwrap_err();
            assert!(
                e.starts_with("line 2: weight must be finite"),
                "{weight}: {e}"
            );
        }
    }
}
