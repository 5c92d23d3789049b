//! The two-site distributed simulation (§1: "the database may be divided
//! into 'local' and 'remote' data with respect to the site of the update.
//! Accessing remote data may be expensive or impossible").
//!
//! [`SiteSplit`] partitions a database by its catalog's locality metadata;
//! the *local view* is what a complete local test is allowed to see. The
//! key invariant (tested here and in the integration suite): every
//! outcome the manager reaches without a full check is **identical** when
//! computed against the local view only — local tests genuinely never read
//! remote data.

use ccpi_storage::{Database, Locality};

/// A database partitioned by locality.
#[derive(Clone, Debug)]
pub struct SiteSplit {
    /// Relations stored at the updating site.
    pub local: Database,
    /// Relations stored remotely.
    pub remote: Database,
}

impl SiteSplit {
    /// Splits `db` according to its catalog.
    ///
    /// Relation instances are shared copy-on-write with `db` (O(1) per
    /// relation), not re-inserted tuple by tuple.
    pub fn of(db: &Database) -> SiteSplit {
        let mut local = Database::new();
        let mut remote = Database::new();
        for decl in db.decls() {
            let target = match decl.locality {
                Locality::Local => &mut local,
                Locality::Remote => &mut remote,
            };
            target
                .declare(decl.name.as_str(), decl.arity, decl.locality)
                .expect("fresh database");
            if let Some(rel) = db.relation(decl.name.as_str()) {
                target
                    .set_relation(decl.name.as_str(), rel.clone())
                    .expect("declared");
            }
        }
        SiteSplit { local, remote }
    }

    /// The local view: all relations declared, but remote ones empty —
    /// what the updating site can evaluate against without communication.
    ///
    /// Local relation instances are shared copy-on-write with `db`.
    pub fn local_view(db: &Database) -> Database {
        let mut view = Database::new();
        for decl in db.decls() {
            view.declare(decl.name.as_str(), decl.arity, decl.locality)
                .expect("fresh database");
            if decl.locality == Locality::Local {
                if let Some(rel) = db.relation(decl.name.as_str()) {
                    view.set_relation(decl.name.as_str(), rel.clone())
                        .expect("declared");
                }
            }
        }
        view
    }

    /// Reassembles the full database (sharing relation storage with both
    /// halves copy-on-write).
    pub fn merged(&self) -> Database {
        let mut out = self.local.clone();
        for decl in self.remote.decls() {
            out.declare(decl.name.as_str(), decl.arity, decl.locality)
                .expect("compatible catalogs");
            if let Some(rel) = self.remote.relation(decl.name.as_str()) {
                out.set_relation(decl.name.as_str(), rel.clone())
                    .expect("declared");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::ConstraintManager;
    use crate::report::{Method, Outcome};
    use ccpi_storage::{tuple, Update};

    fn sample_db() -> Database {
        let mut db = Database::new();
        db.declare("l", 2, Locality::Local).unwrap();
        db.declare("r", 1, Locality::Remote).unwrap();
        db.insert("l", tuple![3, 6]).unwrap();
        db.insert("l", tuple![5, 10]).unwrap();
        db.insert("r", tuple![20]).unwrap();
        db
    }

    #[test]
    fn split_partitions_by_locality() {
        let db = sample_db();
        let split = SiteSplit::of(&db);
        assert_eq!(split.local.relation("l").unwrap().len(), 2);
        assert!(split.local.relation("r").is_none());
        assert_eq!(split.remote.relation("r").unwrap().len(), 1);
        assert!(split.remote.relation("l").is_none());
    }

    #[test]
    fn split_shares_relation_storage() {
        let db = sample_db();
        let split = SiteSplit::of(&db);
        assert!(split
            .local
            .relation("l")
            .unwrap()
            .shares_storage_with(db.relation("l").unwrap()));
        assert!(split
            .remote
            .relation("r")
            .unwrap()
            .shares_storage_with(db.relation("r").unwrap()));
        let view = SiteSplit::local_view(&db);
        assert!(view
            .relation("l")
            .unwrap()
            .shares_storage_with(db.relation("l").unwrap()));
    }

    #[test]
    fn merged_round_trips() {
        let db = sample_db();
        let merged = SiteSplit::of(&db).merged();
        assert_eq!(merged.relation("l").unwrap().len(), 2);
        assert_eq!(merged.relation("r").unwrap().len(), 1);
    }

    #[test]
    fn local_view_empties_remote_relations() {
        let db = sample_db();
        let view = SiteSplit::local_view(&db);
        assert_eq!(view.relation("l").unwrap().len(), 2);
        assert_eq!(view.relation("r").unwrap().len(), 0);
        assert_eq!(view.locality("r"), Some(Locality::Remote));
    }

    /// The headline invariant: a local-test outcome computed on the full
    /// database equals the outcome computed on the local view (remote data
    /// invisible) — complete local tests never read remote relations.
    #[test]
    fn local_tests_identical_without_remote_data() {
        let src = "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y.";
        let mut full = ConstraintManager::new(sample_db());
        full.add_constraint("c", src).unwrap();
        let mut local_only = ConstraintManager::new(SiteSplit::local_view(&sample_db()));
        local_only.add_constraint("c", src).unwrap();

        for (a, b) in [(4i64, 8i64), (3, 10), (5, 5)] {
            let upd = Update::insert("l", tuple![a, b]);
            let r1 = full.check_update(&upd).unwrap();
            let r2 = local_only.check_update(&upd).unwrap();
            let o1 = r1.outcome("c").unwrap();
            let o2 = r2.outcome("c").unwrap();
            assert!(matches!(o1, Outcome::Holds(Method::LocalTest(_))), "{o1:?}");
            assert_eq!(o1, o2, "({a},{b})");
            assert_eq!(r1.remote_tuples_read, 0);
        }
    }
}
