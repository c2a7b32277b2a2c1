//! Enclave lifecycle and NPU contexts (paper §IV-B, §IV-E).
//!
//! The CPU enclave initiates secure NPU computation: it allocates EPC
//! pages for its own code/data (fully-protected region) and non-EPC pages
//! for the NPU's tensors (tree-less region), and designates a contiguous
//! protected virtual range — `NELRANGE` — for the NPU context. Enclave
//! contents are measured page by page for attestation.

use crate::epcm::Eepcm;
use crate::pagetable::PageTable;
use crate::{EnclaveId, Perms, Ppn, Vpn};
use std::collections::BTreeMap;
use std::ops::Range;
use tnpu_crypto::sha256::Sha256;

/// What kind of protection a page region uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionKind {
    /// Fully-protected region (counter tree; EPC-like).
    FullyProtected,
    /// Tree-less region (AES-XTS + versioned MACs; NPU tensors).
    Treeless,
}

/// A live enclave.
#[derive(Debug)]
pub struct Enclave {
    /// Identity.
    pub id: EnclaveId,
    /// The NPU context's protected virtual range, if one was set.
    pub nelrange: Option<Range<u64>>,
    /// Measured content per virtual page (what `measure` hashes).
    content: BTreeMap<u64, Vec<u8>>,
    /// Pages donated to the enclave, with their region kind.
    pages: Vec<(Vpn, Ppn, RegionKind)>,
    /// Whether initialization finished (measurement is then frozen).
    initialized: bool,
}

impl Enclave {
    /// Pages owned by the enclave.
    #[must_use]
    pub fn pages(&self) -> &[(Vpn, Ppn, RegionKind)] {
        &self.pages
    }

    /// SGX-style measurement: a running hash over (vpn, content) of every
    /// added page, in address order.
    #[must_use]
    pub fn measure(&self) -> [u8; 32] {
        let mut h = Sha256::new();
        for (vpn, content) in &self.content {
            h.update(&vpn.to_le_bytes());
            h.update(content);
        }
        h.finalize()
    }
}

/// Errors of the enclave life cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnclaveError {
    /// The physical page is already owned.
    PageBusy(Ppn),
    /// The enclave is already initialized (no more pages may be added —
    /// the measurement is frozen).
    AlreadyInitialized(EnclaveId),
    /// Unknown enclave id.
    NoSuchEnclave(EnclaveId),
}

impl std::fmt::Display for EnclaveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnclaveError::PageBusy(p) => write!(f, "physical page {} is busy", p.0),
            EnclaveError::AlreadyInitialized(id) => write!(f, "{id} is already initialized"),
            EnclaveError::NoSuchEnclave(id) => write!(f, "{id} does not exist"),
        }
    }
}

impl std::error::Error for EnclaveError {}

/// Creates enclaves and donates pages, updating the EEPCM and the (OS)
/// page table consistently.
#[derive(Debug, Default)]
pub struct EnclaveManager {
    enclaves: BTreeMap<u32, Enclave>,
    next_id: u32,
}

impl EnclaveManager {
    /// Empty manager.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a new, empty enclave.
    pub fn create(&mut self) -> EnclaveId {
        let id = EnclaveId(self.next_id);
        self.next_id += 1;
        self.enclaves.insert(
            id.0,
            Enclave {
                id,
                nelrange: None,
                content: BTreeMap::new(),
                pages: Vec::new(),
                initialized: false,
            },
        );
        id
    }

    /// Look up an enclave.
    #[must_use]
    pub fn get(&self, id: EnclaveId) -> Option<&Enclave> {
        self.enclaves.get(&id.0)
    }

    /// Add a page with `content` to `id` at `vpn`, backed by `ppn`:
    /// records ownership in the EEPCM, installs the page-table mapping,
    /// and extends the measurement.
    ///
    /// # Errors
    ///
    /// [`EnclaveError`] if the enclave is unknown/initialized or the frame
    /// is busy.
    #[allow(clippy::too_many_arguments)]
    pub fn add_page(
        &mut self,
        eepcm: &mut Eepcm,
        table: &mut PageTable,
        id: EnclaveId,
        vpn: Vpn,
        ppn: Ppn,
        kind: RegionKind,
        perms: Perms,
        content: &[u8],
    ) -> Result<(), EnclaveError> {
        let enclave = self
            .enclaves
            .get_mut(&id.0)
            .ok_or(EnclaveError::NoSuchEnclave(id))?;
        if enclave.initialized {
            return Err(EnclaveError::AlreadyInitialized(id));
        }
        let mac_enabled = kind == RegionKind::Treeless;
        eepcm
            .assign(ppn, id, vpn, perms, mac_enabled)
            .map_err(|_| EnclaveError::PageBusy(ppn))?;
        table.map(vpn, ppn);
        enclave.pages.push((vpn, ppn, kind));
        enclave.content.insert(vpn.0, content.to_vec());
        Ok(())
    }

    /// Set the NPU context's protected virtual byte range.
    ///
    /// # Errors
    ///
    /// [`EnclaveError::NoSuchEnclave`] if unknown.
    pub fn set_nelrange(&mut self, id: EnclaveId, range: Range<u64>) -> Result<(), EnclaveError> {
        let enclave = self
            .enclaves
            .get_mut(&id.0)
            .ok_or(EnclaveError::NoSuchEnclave(id))?;
        enclave.nelrange = Some(range);
        Ok(())
    }

    /// Tear an enclave down, removing it from the manager and returning it
    /// so the caller can release its EEPCM frames and unmap its pages —
    /// the manager does not own the EEPCM/page table, so the cleanup is
    /// the caller's half of the contract. Once destroyed, `get` returns
    /// `None` and attestation/translation for the id must fail.
    ///
    /// # Errors
    ///
    /// [`EnclaveError::NoSuchEnclave`] if unknown (or already destroyed).
    pub fn destroy(&mut self, id: EnclaveId) -> Result<Enclave, EnclaveError> {
        self.enclaves
            .remove(&id.0)
            .ok_or(EnclaveError::NoSuchEnclave(id))
    }

    /// Finish initialization: freezes the measurement.
    ///
    /// # Errors
    ///
    /// [`EnclaveError::NoSuchEnclave`] if unknown.
    pub fn initialize(&mut self, id: EnclaveId) -> Result<[u8; 32], EnclaveError> {
        let enclave = self
            .enclaves
            .get_mut(&id.0)
            .ok_or(EnclaveError::NoSuchEnclave(id))?;
        enclave.initialized = true;
        Ok(enclave.measure())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (EnclaveManager, Eepcm, PageTable, EnclaveId) {
        let mut mgr = EnclaveManager::new();
        let id = mgr.create();
        (mgr, Eepcm::new(), PageTable::new(), id)
    }

    #[test]
    fn create_add_initialize() {
        let (mut mgr, mut eepcm, mut pt, id) = setup();
        mgr.add_page(
            &mut eepcm,
            &mut pt,
            id,
            Vpn(1),
            Ppn(10),
            RegionKind::FullyProtected,
            Perms::RX,
            b"code",
        )
        .expect("add");
        let m = mgr.initialize(id).expect("init");
        assert_eq!(m, mgr.get(id).expect("exists").measure());
        // No more pages after initialization.
        assert_eq!(
            mgr.add_page(
                &mut eepcm,
                &mut pt,
                id,
                Vpn(2),
                Ppn(11),
                RegionKind::Treeless,
                Perms::RW,
                b"",
            ),
            Err(EnclaveError::AlreadyInitialized(id))
        );
    }

    #[test]
    fn measurement_depends_on_content_and_layout() {
        let (mut mgr, mut eepcm, mut pt, id) = setup();
        mgr.add_page(
            &mut eepcm,
            &mut pt,
            id,
            Vpn(1),
            Ppn(10),
            RegionKind::FullyProtected,
            Perms::RX,
            b"code-v1",
        )
        .expect("add");
        let m1 = mgr.get(id).expect("exists").measure();

        let (mut mgr2, mut eepcm2, mut pt2, id2) = setup();
        mgr2.add_page(
            &mut eepcm2,
            &mut pt2,
            id2,
            Vpn(1),
            Ppn(10),
            RegionKind::FullyProtected,
            Perms::RX,
            b"code-v2",
        )
        .expect("add");
        assert_ne!(m1, mgr2.get(id2).expect("exists").measure());

        let (mut mgr3, mut eepcm3, mut pt3, id3) = setup();
        mgr3.add_page(
            &mut eepcm3,
            &mut pt3,
            id3,
            Vpn(2),
            Ppn(10),
            RegionKind::FullyProtected,
            Perms::RX,
            b"code-v1",
        )
        .expect("add");
        assert_ne!(m1, mgr3.get(id3).expect("exists").measure(), "vpn matters");
    }

    #[test]
    fn page_busy_propagates() {
        let (mut mgr, mut eepcm, mut pt, id) = setup();
        let id2 = mgr.create();
        mgr.add_page(
            &mut eepcm,
            &mut pt,
            id,
            Vpn(1),
            Ppn(10),
            RegionKind::Treeless,
            Perms::RW,
            b"",
        )
        .expect("add");
        assert_eq!(
            mgr.add_page(
                &mut eepcm,
                &mut pt,
                id2,
                Vpn(5),
                Ppn(10),
                RegionKind::Treeless,
                Perms::RW,
                b"",
            ),
            Err(EnclaveError::PageBusy(Ppn(10)))
        );
    }

    #[test]
    fn destroy_removes_and_returns_pages_for_cleanup() {
        let (mut mgr, mut eepcm, mut pt, id) = setup();
        mgr.add_page(
            &mut eepcm,
            &mut pt,
            id,
            Vpn(1),
            Ppn(10),
            RegionKind::Treeless,
            Perms::RW,
            b"",
        )
        .expect("add");
        let dead = mgr.destroy(id).expect("destroy");
        assert_eq!(dead.pages(), &[(Vpn(1), Ppn(10), RegionKind::Treeless)]);
        assert!(mgr.get(id).is_none(), "destroyed enclave is gone");
        assert!(matches!(
            mgr.destroy(id),
            Err(EnclaveError::NoSuchEnclave(e)) if e == id
        ));
        // The caller's half: release the frame, after which it is
        // assignable again.
        eepcm.release(Ppn(10), id).expect("release");
        let id2 = mgr.create();
        mgr.add_page(
            &mut eepcm,
            &mut pt,
            id2,
            Vpn(7),
            Ppn(10),
            RegionKind::Treeless,
            Perms::RW,
            b"",
        )
        .expect("frame reusable after release");
    }

    #[test]
    fn treeless_pages_enable_macs() {
        let (mut mgr, mut eepcm, mut pt, id) = setup();
        mgr.add_page(
            &mut eepcm,
            &mut pt,
            id,
            Vpn(1),
            Ppn(10),
            RegionKind::Treeless,
            Perms::RW,
            b"",
        )
        .expect("add");
        match eepcm.state(Ppn(10)) {
            crate::epcm::PageState::Protected { mac_enabled, .. } => assert!(mac_enabled),
            other => panic!("unexpected state {other:?}"),
        }
    }
}
