//! Experiment implementations, one module per paper artifact.

pub mod fig1;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod scale;
pub mod scenario;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod training;
pub mod trio;
