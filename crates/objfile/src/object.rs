use std::collections::HashMap;
use std::fmt;

use lfi_isa::Platform;

use crate::{FunctionCode, ObjError, Symbol, SymbolDef, SymbolId};

/// Storage class of a data symbol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Storage {
    /// Ordinary module-global data.
    Global,
    /// Thread-local storage (the `errno` class of side channels).
    Tls,
}

impl fmt::Display for Storage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Storage::Global => f.write_str("global"),
            Storage::Tls => f.write_str("TLS"),
        }
    }
}

/// A named data slot in a shared object's data image.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DataSymbol {
    /// Symbol name (e.g. `errno`).
    pub name: String,
    /// Offset of the slot within the module's data image.
    pub offset: u32,
    /// Storage class.
    pub storage: Storage,
}

/// A parsed (or freshly built) SimObj shared object.
///
/// Construct one with [`crate::ObjectBuilder`] or parse one from bytes with
/// [`SharedObject::from_bytes`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharedObject {
    pub(crate) name: String,
    pub(crate) platform: Platform,
    pub(crate) symbols: Vec<Symbol>,
    pub(crate) functions: Vec<FunctionCode>,
    pub(crate) data_symbols: Vec<DataSymbol>,
    pub(crate) dependencies: Vec<String>,
    pub(crate) stripped: bool,
}

impl SharedObject {
    /// The library's file name (e.g. `libc.so.6`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The platform this object was built for.
    pub fn platform(&self) -> Platform {
        self.platform
    }

    /// The full symbol table.
    pub fn symbols(&self) -> &[Symbol] {
        &self.symbols
    }

    /// The symbol at `id`, if any.
    pub fn symbol(&self, id: SymbolId) -> Option<&Symbol> {
        self.symbols.get(id.0 as usize)
    }

    /// Looks a symbol up by name (stripped local symbols have empty names and
    /// cannot be found this way).
    pub fn symbol_by_name(&self, name: &str) -> Option<(SymbolId, &Symbol)> {
        self.symbols
            .iter()
            .enumerate()
            .find(|(_, s)| !name.is_empty() && s.name == name)
            .map(|(i, s)| (SymbolId(i as u32), s))
    }

    /// Iterates over the dynamic exports (the library's public interface).
    pub fn exported_symbols(&self) -> impl Iterator<Item = (SymbolId, &Symbol)> {
        self.symbols
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_export())
            .map(|(i, s)| (SymbolId(i as u32), s))
    }

    /// Number of exported functions.
    pub fn export_count(&self) -> usize {
        self.exported_symbols().count()
    }

    /// The machine code for the symbol at `id`.
    ///
    /// # Errors
    ///
    /// Returns [`ObjError::UnknownSymbol`] when `id` is out of range,
    /// [`ObjError::SymbolIsImport`] when the symbol has no code in this
    /// object, and [`ObjError::DanglingFunctionIndex`] when the symbol points
    /// at a missing text section.
    pub fn code_for(&self, id: SymbolId) -> Result<&FunctionCode, ObjError> {
        let symbol = self.symbol(id).ok_or_else(|| ObjError::UnknownSymbol { name: id.to_string() })?;
        match symbol.def {
            SymbolDef::Import { .. } => Err(ObjError::SymbolIsImport { name: symbol.name.clone() }),
            SymbolDef::Defined { func_index, .. } => self
                .functions
                .get(func_index as usize)
                .ok_or_else(|| ObjError::DanglingFunctionIndex { symbol: symbol.name.clone(), index: func_index }),
        }
    }

    /// The machine code for the named symbol.
    ///
    /// # Errors
    ///
    /// Same as [`SharedObject::code_for`], plus [`ObjError::UnknownSymbol`]
    /// when no symbol has that name.
    pub fn code_for_name(&self, name: &str) -> Result<&FunctionCode, ObjError> {
        let (id, _) = self
            .symbol_by_name(name)
            .ok_or_else(|| ObjError::UnknownSymbol { name: name.to_owned() })?;
        self.code_for(id)
    }

    /// Libraries this object depends on (the `DT_NEEDED` analogue).
    pub fn dependencies(&self) -> &[String] {
        &self.dependencies
    }

    /// Named data slots (globals and TLS variables such as `errno`).
    pub fn data_symbols(&self) -> &[DataSymbol] {
        &self.data_symbols
    }

    /// The data symbol covering `offset`, if any.
    pub fn data_symbol_at(&self, offset: u32) -> Option<&DataSymbol> {
        self.data_symbols.iter().find(|d| d.offset == offset)
    }

    /// The data symbol with the given name, if any.
    pub fn data_symbol_named(&self, name: &str) -> Option<&DataSymbol> {
        self.data_symbols.iter().find(|d| d.name == name)
    }

    /// Total size of the text sections, in bytes.  Profiling time in the
    /// paper's §6.2 is dominated by this quantity.
    pub fn code_size(&self) -> usize {
        self.functions.iter().map(FunctionCode::size).sum()
    }

    /// Whether local symbol names have been removed.
    pub fn is_stripped(&self) -> bool {
        self.stripped
    }

    /// A 64-bit content fingerprint of the object
    /// ([FNV-1a](crate::stable_hash) over its serialized form).  Two objects
    /// with the same fingerprint are byte-identical for every purpose the
    /// toolchain cares about: name, platform, symbols, code and data image.
    /// Content-addressed caches (disassembly, fault-profile stores) key on
    /// this value, so it is stable across processes and toolchains.
    pub fn fingerprint(&self) -> u64 {
        crate::stable_hash::fold(crate::stable_hash::OFFSET_BASIS, &self.to_bytes())
    }

    /// Returns a copy of this object with local (non-exported) symbol names
    /// removed, as `strip` would produce.  Exports keep their names because
    /// the dynamic symbol table survives stripping.
    pub fn stripped(&self) -> SharedObject {
        let mut copy = self.clone();
        for symbol in &mut copy.symbols {
            if !symbol.is_export() && symbol.is_defined() {
                symbol.name = String::new();
                symbol.signature = None;
            }
        }
        copy.stripped = true;
        copy
    }

    /// Checks internal consistency: every defined symbol points at an existing
    /// text section and exported symbols have non-empty names.
    ///
    /// # Errors
    ///
    /// Returns the first inconsistency found.
    pub fn validate(&self) -> Result<(), ObjError> {
        for symbol in &self.symbols {
            if let SymbolDef::Defined { func_index, exported } = symbol.def {
                if self.functions.get(func_index as usize).is_none() {
                    return Err(ObjError::DanglingFunctionIndex { symbol: symbol.name.clone(), index: func_index });
                }
                if exported && symbol.name.is_empty() {
                    return Err(ObjError::UnknownSymbol { name: "<unnamed export>".to_owned() });
                }
            }
        }
        Ok(())
    }

    /// Builds a map from symbol name to id for every named symbol.
    pub fn name_index(&self) -> HashMap<&str, SymbolId> {
        self.symbols
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.name.is_empty())
            .map(|(i, s)| (s.name.as_str(), SymbolId(i as u32)))
            .collect()
    }
}

impl fmt::Display for SharedObject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {} exports, {} functions, {} bytes of text",
            self.name,
            self.platform,
            self.export_count(),
            self.functions.len(),
            self.code_size()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ObjectBuilder, ReturnType};
    use lfi_isa::{Inst, Loc, Reg};

    fn demo_object() -> SharedObject {
        let ret = Loc::Reg(Reg(0));
        ObjectBuilder::new("libdemo.so", Platform::LinuxX86)
            .dependency("libc.so.6")
            .data_symbol("errno", 0x12fff4, Storage::Tls)
            .data_symbol("demo_state", 0x40, Storage::Global)
            .export_with_signature("fail", ReturnType::Scalar, 0, vec![Inst::MovImm { dst: ret, imm: -1 }, Inst::Ret])
            .local("helper", vec![Inst::Ret])
            .import("malloc", Some("libc.so.6"))
            .build()
    }

    #[test]
    fn export_iteration_and_lookup() {
        let obj = demo_object();
        assert_eq!(obj.export_count(), 1);
        let (id, sym) = obj.symbol_by_name("fail").unwrap();
        assert!(sym.is_export());
        assert!(obj.code_for(id).is_ok());
        assert!(obj.code_for_name("fail").is_ok());
        assert!(obj.symbol_by_name("absent").is_none());
    }

    #[test]
    fn import_has_no_code() {
        let obj = demo_object();
        let err = obj.code_for_name("malloc").unwrap_err();
        assert_eq!(err, ObjError::SymbolIsImport { name: "malloc".into() });
        let err = obj.code_for_name("nope").unwrap_err();
        assert!(matches!(err, ObjError::UnknownSymbol { .. }));
    }

    #[test]
    fn data_symbols_are_queryable() {
        let obj = demo_object();
        assert_eq!(obj.data_symbol_at(0x12fff4).unwrap().name, "errno");
        assert_eq!(obj.data_symbol_named("errno").unwrap().storage, Storage::Tls);
        assert_eq!(obj.data_symbol_named("demo_state").unwrap().storage, Storage::Global);
        assert!(obj.data_symbol_at(0x9999).is_none());
    }

    #[test]
    fn stripping_removes_local_names_only() {
        let obj = demo_object();
        let stripped = obj.stripped();
        assert!(stripped.is_stripped());
        assert!(stripped.symbol_by_name("helper").is_none());
        assert!(stripped.symbol_by_name("fail").is_some());
        // The code is still there, just unnamed.
        assert_eq!(stripped.functions.len(), obj.functions.len());
        assert!(stripped.validate().is_ok());
    }

    #[test]
    fn validation_catches_dangling_indices() {
        let mut obj = demo_object();
        obj.symbols.push(Symbol {
            name: "broken".into(),
            def: SymbolDef::Defined { func_index: 99, exported: true },
            signature: None,
        });
        assert!(matches!(obj.validate(), Err(ObjError::DanglingFunctionIndex { index: 99, .. })));
    }

    #[test]
    fn fingerprint_tracks_content() {
        let obj = demo_object();
        assert_eq!(obj.fingerprint(), demo_object().fingerprint());
        assert_eq!(obj.fingerprint(), obj.clone().fingerprint());
        // Any content change — here stripping local names — changes the hash.
        assert_ne!(obj.fingerprint(), obj.stripped().fingerprint());
        let renamed = ObjectBuilder::new("libother.so", Platform::LinuxX86).build();
        assert_ne!(renamed.fingerprint(), demo_object().fingerprint());
    }

    #[test]
    fn display_and_sizes() {
        let obj = demo_object();
        assert!(obj.code_size() > 0);
        let text = obj.to_string();
        assert!(text.contains("libdemo.so"));
        assert!(text.contains("1 exports"));
    }

    #[test]
    fn name_index_covers_named_symbols() {
        let obj = demo_object();
        let idx = obj.name_index();
        assert!(idx.contains_key("fail"));
        assert!(idx.contains_key("malloc"));
        assert_eq!(idx.len(), 3);
    }
}
