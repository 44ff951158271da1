//! Quickstart: describe a processor in LISA, generate its tools, and run
//! a program — the complete retargetable flow from one description.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use lisa::core::model::ModelStats;
use lisa::core::Model;
use lisa::isa::{Assembler, Decoder};
use lisa::sim::{SimMode, Simulator};

/// A four-instruction counter machine, written from scratch right here.
const SOURCE: &str = r#"
RESOURCE {
    PROGRAM_COUNTER int pc;
    CONTROL_REGISTER int ir;
    REGISTER int acc;
    REGISTER bit halt;
    PROGRAM_MEMORY int pmem[32];
}

OPERATION imm8 {
    DECLARE { LABEL value; }
    CODING { value:0bx[8] }
    SYNTAX { value:#s }
    EXPRESSION { sext(value, 8) }
}

OPERATION addi {
    DECLARE { GROUP Val = { imm8 }; }
    CODING { 0b01 Val 0bx[6] }
    SYNTAX { "ADDI" Val }
    BEHAVIOR { acc = acc + Val; }
}

OPERATION muli {
    DECLARE { GROUP Val = { imm8 }; }
    CODING { 0b10 Val 0bx[6] }
    SYNTAX { "MULI" Val }
    BEHAVIOR { acc = acc * Val; }
}

OPERATION done {
    CODING { 0b11 0bx[14] }
    SYNTAX { "DONE" }
    BEHAVIOR { halt = 1; }
}

OPERATION decode {
    DECLARE { GROUP Instruction = { addi || muli || done }; }
    CODING { ir == Instruction }
    SYNTAX { Instruction }
    BEHAVIOR { Instruction; }
}

OPERATION main {
    BEHAVIOR {
        if (halt == 0) {
            ir = pmem[pc];
            decode;
            pc = pc + 1;
        }
    }
}
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. One description → the model database.
    let model = Model::from_source(SOURCE)?;
    println!("model built:\n{}\n", ModelStats::of(&model));

    // 2. Generated assembler: text → bits.
    let decoder = Decoder::new(&model)?;
    let asm = Assembler::new(&model, &decoder);
    let program = ["ADDI 6", "MULI 7", "ADDI -2", "DONE"];
    let mut words = Vec::new();
    println!("assembled program:");
    for stmt in program {
        let word = asm.assemble_instruction(stmt)?.encode(&model)?;
        println!("  {word:04x}  {stmt}");
        words.push(word);
    }

    // 3. Generated disassembler: bits → text (round trip).
    println!("\ndisassembled back:");
    for &word in &words {
        println!("  {:04x}  {}", word, asm.disassemble(&decoder.decode(word)?));
    }

    // 4. Generated cycle-accurate simulator (compiled technique);
    //    loading a program in ops mode pre-decodes it automatically.
    let mut sim = Simulator::new(&model, SimMode::Ops)?;
    sim.load_program("pmem", &words)?;
    let halt = model.resource_by_name("halt").expect("halt flag").clone();
    let cycles = sim.run_until(|st| st.read_int(&halt, &[]).unwrap_or(0) != 0, 100)?.cycles;

    let acc = model.resource_by_name("acc").expect("accumulator");
    println!("\nran {cycles} control steps; acc = {}", sim.state().read_int(acc, &[])?);
    println!("simulator stats: {}", sim.stats());
    assert_eq!(sim.state().read_int(acc, &[])?, (6 * 7) - 2);
    Ok(())
}
