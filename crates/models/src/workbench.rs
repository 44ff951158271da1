//! A workbench bundles a model with its generated tools, the way the
//! paper's environment configures every tool from one description.

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use lisa_core::{LisaError, Model};
use lisa_isa::{Assembler, Decoded, Decoder, IsaError};
use lisa_sim::{SimError, SimMode, Simulator};

/// An error from building or using a workbench.
#[derive(Debug)]
#[non_exhaustive]
pub enum WorkbenchError {
    /// The LISA source failed to parse or analyse.
    Lisa(LisaError),
    /// A generated ISA tool failed.
    Isa(IsaError),
    /// Simulation failed.
    Sim(SimError),
    /// The model has no resource of this name (e.g. the halt flag).
    UnknownResource(String),
}

impl fmt::Display for WorkbenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkbenchError::Lisa(e) => write!(f, "{e}"),
            WorkbenchError::Isa(e) => write!(f, "{e}"),
            WorkbenchError::Sim(e) => write!(f, "{e}"),
            WorkbenchError::UnknownResource(name) => write!(f, "model has no resource `{name}`"),
        }
    }
}

impl Error for WorkbenchError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            WorkbenchError::Lisa(e) => Some(e),
            WorkbenchError::Isa(e) => Some(e),
            WorkbenchError::Sim(e) => Some(e),
            WorkbenchError::UnknownResource(_) => None,
        }
    }
}

impl From<LisaError> for WorkbenchError {
    fn from(e: LisaError) -> Self {
        WorkbenchError::Lisa(e)
    }
}

impl From<IsaError> for WorkbenchError {
    fn from(e: IsaError) -> Self {
        WorkbenchError::Isa(e)
    }
}

impl From<SimError> for WorkbenchError {
    fn from(e: SimError) -> Self {
        WorkbenchError::Sim(e)
    }
}

/// A model plus the program-memory resource its programs load into.
///
/// Owns the [`Model`] (shared, see [`Workbench::shared_model`]);
/// generated tools borrow from it via [`Workbench::decoder`],
/// [`Workbench::assemble`] and [`Workbench::simulator`].
///
/// # Examples
///
/// ```
/// use lisa_models::{tinyrisc, Workbench};
/// use lisa_sim::SimMode;
///
/// # fn main() -> Result<(), lisa_models::WorkbenchError> {
/// let wb = tinyrisc::workbench()?;
/// let words = wb.assemble(&["LDI R1, 2", "LDI R2, 3", "ADD R3, R1, R2", "HLT"])?;
/// let mut sim = wb.simulator(SimMode::Ops)?;
/// sim.load_program(wb.program_memory(), &words)?;
/// wb.run_to_halt(&mut sim, 1000)?;
/// let r = wb.model().resource_by_name("R").expect("register file");
/// assert_eq!(sim.state().read_int(r, &[3])?, 5);
/// # Ok(())
/// # }
/// ```
pub struct Workbench {
    model: Arc<Model>,
    program_memory: &'static str,
    halt_flag: &'static str,
    /// Fetch-packet size in words, for a VLIW model whose programs
    /// assemble in packets (`None`: one word per statement).
    pub(crate) packet: Option<usize>,
}

impl Workbench {
    /// Builds a workbench from LISA source.
    ///
    /// # Errors
    ///
    /// Returns [`WorkbenchError::Lisa`] when the source does not parse or
    /// analyse.
    pub fn from_source(
        source: &str,
        program_memory: &'static str,
        halt_flag: &'static str,
    ) -> Result<Workbench, WorkbenchError> {
        let model = Arc::new(Model::from_source(source)?);
        Ok(Workbench { model, program_memory, halt_flag, packet: None })
    }

    /// The model database.
    #[must_use]
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// The model database as a shared handle, for an owner that keeps
    /// the model next to the workbench without building it twice (and
    /// so without generating its simulator image twice).
    #[must_use]
    pub fn shared_model(&self) -> &Arc<Model> {
        &self.model
    }

    /// Name of the program memory programs load into.
    #[must_use]
    pub fn program_memory(&self) -> &'static str {
        self.program_memory
    }

    /// Name of the halt-flag resource.
    #[must_use]
    pub fn halt_flag(&self) -> &'static str {
        self.halt_flag
    }

    /// Builds the generated decoder.
    ///
    /// # Errors
    ///
    /// Returns [`WorkbenchError::Isa`] if the model has no decode root.
    pub fn decoder(&self) -> Result<Decoder<'_>, WorkbenchError> {
        Ok(Decoder::new(&self.model)?)
    }

    /// Assembles statements into instruction words.
    ///
    /// # Errors
    ///
    /// Returns [`WorkbenchError::Isa`] for syntax mismatches or encoding
    /// failures.
    pub fn assemble(&self, statements: &[&str]) -> Result<Vec<u128>, WorkbenchError> {
        let decoder = self.decoder()?;
        let asm = Assembler::new(&self.model, &decoder);
        statements.iter().map(|s| Ok(asm.assemble_word(s, &|_| None)?)).collect()
    }

    /// The program assembler (labels, directives, listing) for this
    /// model, packing fetch packets on a VLIW model.
    #[must_use]
    pub fn assembler(&self) -> lisa_asm::Assembler<'_> {
        match self.packet {
            Some(n) => lisa_asm::Assembler::with_packet(&self.model, n, 1),
            None => lisa_asm::Assembler::new(&self.model),
        }
    }

    /// Assembles one statement into a decoded tree (for inspection).
    ///
    /// # Errors
    ///
    /// Returns [`WorkbenchError::Isa`] when no syntax matches.
    pub fn assemble_one(&self, statement: &str) -> Result<Decoded, WorkbenchError> {
        let decoder = self.decoder()?;
        let asm = Assembler::new(&self.model, &decoder);
        Ok(asm.assemble_instruction(statement)?)
    }

    /// Disassembles an instruction word to canonical text.
    ///
    /// # Errors
    ///
    /// Returns [`WorkbenchError::Isa`] when the word does not decode.
    pub fn disassemble(&self, word: u128) -> Result<String, WorkbenchError> {
        let decoder = self.decoder()?;
        let asm = Assembler::new(&self.model, &decoder);
        let decoded = decoder.decode(word)?;
        Ok(asm.disassemble(&decoded))
    }

    /// Creates a simulator in the given mode.
    ///
    /// # Errors
    ///
    /// Returns [`WorkbenchError::Sim`] when ops-mode lowering fails.
    pub fn simulator(&self, mode: SimMode) -> Result<Simulator<'_>, WorkbenchError> {
        Ok(Simulator::new(&self.model, mode)?)
    }

    /// Runs a simulator until the model's halt flag becomes nonzero.
    ///
    /// Returns the number of control steps taken.
    ///
    /// # Errors
    ///
    /// Returns [`WorkbenchError::UnknownResource`] when the model has no
    /// halt flag, and [`WorkbenchError::Sim`] on runtime errors or when
    /// `max_steps` is exceeded.
    pub fn run_to_halt(
        &self,
        sim: &mut Simulator<'_>,
        max_steps: u64,
    ) -> Result<u64, WorkbenchError> {
        let halt = self
            .model
            .resource_by_name(self.halt_flag)
            .ok_or_else(|| WorkbenchError::UnknownResource(self.halt_flag.to_owned()))?;
        Ok(sim.run_until(|st| st.read_int(halt, &[]).unwrap_or(0) != 0, max_steps)?.cycles)
    }

    /// Convenience: assemble, load, run to halt in the given mode; returns
    /// the simulator for state inspection.
    ///
    /// # Errors
    ///
    /// Any assembly or simulation error.
    pub fn run_program(
        &self,
        statements: &[&str],
        mode: SimMode,
        max_steps: u64,
    ) -> Result<Simulator<'_>, WorkbenchError> {
        let words = self.assemble(statements)?;
        let mut sim = self.simulator(mode)?;
        // load_program pre-decodes automatically in ops mode.
        sim.load_program(self.program_memory, &words)?;
        self.run_to_halt(&mut sim, max_steps)?;
        Ok(sim)
    }
}
