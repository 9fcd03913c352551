//! The data access relationship: which memory operations touch which
//! objects, and how often.

use crate::offsets::AddressInfo;
use crate::pointsto::{ObjectSet, PointsTo};
use mcpart_ir::{EntityMap, FuncId, ObjectId, OpId, Profile, Program};
use std::collections::HashMap;

/// A memory access site: a load, store or malloc operation in some
/// function.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct AccessSite {
    /// Containing function.
    pub func: FuncId,
    /// The operation.
    pub op: OpId,
}

/// The program-wide "data access relationship graph" of §3.2: every
/// memory access operation annotated with the objects it can reach, plus
/// per-object aggregates.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AccessInfo {
    /// Objects reachable from each access site (empty points-to sets are
    /// recorded as empty, meaning "unknown/unanalyzable" — none occur in
    /// verified programs built through the IR builder).
    pub site_objects: HashMap<AccessSite, ObjectSet>,
    /// Dynamic execution frequency of each access site.
    pub site_freq: HashMap<AccessSite, u64>,
    /// All access sites per object.
    pub object_sites: EntityMap<ObjectId, Vec<AccessSite>>,
    /// Total dynamic accesses per object (a site touching several
    /// objects contributes its full frequency to each).
    pub object_freq: EntityMap<ObjectId, u64>,
    /// Constant-address information for offset-based memory
    /// disambiguation.
    pub addresses: AddressInfo,
}

impl AccessInfo {
    /// Builds the relationship from points-to results and a profile.
    pub fn compute(program: &Program, pts: &PointsTo, profile: &Profile) -> Self {
        let mut site_objects = HashMap::new();
        let mut site_freq = HashMap::new();
        let mut object_sites: EntityMap<ObjectId, Vec<AccessSite>> =
            EntityMap::with_default(program.objects.len(), Vec::new());
        let mut object_freq: EntityMap<ObjectId, u64> =
            EntityMap::with_default(program.objects.len(), 0);
        for (fid, func) in program.functions.iter() {
            for (oid, op) in func.ops.iter() {
                if !op.opcode.is_memory() {
                    continue;
                }
                let site = AccessSite { func: fid, op: oid };
                let objects = pts.memop_objects(program, fid, oid).unwrap_or_default();
                let freq = profile.op_freq(program, fid, oid);
                for &obj in &objects {
                    object_sites[obj].push(site);
                    object_freq[obj] += freq;
                }
                site_objects.insert(site, objects);
                site_freq.insert(site, freq);
            }
        }
        let addresses = AddressInfo::compute(program);
        AccessInfo { site_objects, site_freq, object_sites, object_freq, addresses }
    }

    /// All access sites, in deterministic order.
    pub fn sites(&self) -> Vec<AccessSite> {
        let mut sites: Vec<AccessSite> = self.site_objects.keys().copied().collect();
        sites.sort();
        sites
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcpart_ir::{DataObject, FunctionBuilder, MemWidth};

    fn two_object_program() -> (Program, ObjectId, ObjectId) {
        let mut p = Program::new("t");
        let a = p.add_object(DataObject::global("a", 16));
        let b_obj = p.add_object(DataObject::global("b", 32));
        let mut b = FunctionBuilder::entry(&mut p);
        let aa = b.addrof(a);
        let ab = b.addrof(b_obj);
        let v = b.load(MemWidth::B4, aa);
        b.store(MemWidth::B4, ab, v);
        b.ret(None);
        (p, a, b_obj)
    }

    #[test]
    fn access_info_maps_sites_to_objects() {
        let (p, a, b_obj) = two_object_program();
        let pts = PointsTo::compute(&p);
        let profile = Profile::uniform(&p, 10);
        let info = AccessInfo::compute(&p, &pts, &profile);
        assert_eq!(info.sites().len(), 2);
        assert_eq!(info.object_freq[a], 10);
        assert_eq!(info.object_freq[b_obj], 10);
        assert_eq!(info.object_sites[a].len(), 1);
    }

    #[test]
    fn frequencies_scale_with_profile() {
        let (p, a, _) = two_object_program();
        let pts = PointsTo::compute(&p);
        let mut profile = Profile::uniform(&p, 1);
        profile.funcs[p.entry].block_freq[p.entry_function().entry] = 1000;
        let info = AccessInfo::compute(&p, &pts, &profile);
        assert_eq!(info.object_freq[a], 1000);
    }
}
