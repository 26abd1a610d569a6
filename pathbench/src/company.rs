//! A plain copy of a generated company store: the oracles scan this, never
//! a structure or the engine.

use std::collections::HashMap;

use pathlog_datagen::{generate_company, CompanyParams};
use pathlog_oodb::{AttrKind, ObjectStore, Value};

pub struct Obj {
    pub name: String,
    pub class: String,
    pub scalars: Vec<(String, Value)>,
    pub sets: Vec<(String, Vec<Value>)>,
}

impl Obj {
    pub fn scalar(&self, attr: &str) -> Option<&Value> {
        self.scalars.iter().find(|(a, _)| a == attr).map(|(_, v)| v)
    }

    pub fn set(&self, attr: &str) -> &[Value] {
        self.sets
            .iter()
            .find(|(a, _)| a == attr)
            .map(|(_, v)| v.as_slice())
            .unwrap_or(&[])
    }

    pub fn int(&self, attr: &str) -> Option<i64> {
        match self.scalar(attr) {
            Some(Value::Int(i)) => Some(*i),
            _ => None,
        }
    }

    /// The name a reference or symbolic value denotes.
    pub fn sym(&self, attr: &str) -> Option<&str> {
        sym(self.scalar(attr)?)
    }
}

pub fn sym(value: &Value) -> Option<&str> {
    match value {
        Value::Ref(s) | Value::Atom(s) => Some(s),
        _ => None,
    }
}

pub struct Company {
    pub objs: Vec<Obj>,
    by_name: HashMap<String, usize>,
    /// `(class, superclass-or-self)` pairs of the schema.
    kinds: Vec<(String, String)>,
}

/// The generated store for `employees` employees.
pub fn generate(employees: usize, seed: u64) -> ObjectStore {
    generate_company(&CompanyParams {
        employees,
        seed,
        ..CompanyParams::default()
    })
}

impl Company {
    pub fn scan(db: &ObjectStore) -> Company {
        let schema = db.schema();
        let attrs: Vec<(String, AttrKind)> = schema.attrs().map(|a| (a.name.clone(), a.kind)).collect();
        let classes: Vec<String> = schema.classes().map(|c| c.name.clone()).collect();
        let mut kinds = Vec::new();
        for sub in &classes {
            for sup in &classes {
                if schema.is_subclass(sub, sup) {
                    kinds.push((sub.clone(), sup.clone()));
                }
            }
        }
        let mut objs = Vec::new();
        for (_, stored) in db.objects() {
            let mut obj = Obj {
                name: stored.name.clone(),
                class: stored.class.clone(),
                scalars: Vec::new(),
                sets: Vec::new(),
            };
            for (attr, kind) in &attrs {
                match kind {
                    AttrKind::Scalar => {
                        if let Some(v) = db.get(&obj.name, attr) {
                            obj.scalars.push((attr.clone(), v.clone()));
                        }
                    }
                    AttrKind::Set => {
                        if let Some(vs) = db.get_set(&obj.name, attr).filter(|vs| !vs.is_empty()) {
                            obj.sets.push((attr.clone(), vs.iter().cloned().collect()));
                        }
                    }
                }
            }
            objs.push(obj);
        }
        let by_name = objs.iter().enumerate().map(|(i, o)| (o.name.clone(), i)).collect();
        Company { objs, by_name, kinds }
    }

    pub fn get(&self, name: &str) -> Option<&Obj> {
        self.by_name.get(name).map(|&i| &self.objs[i])
    }

    /// Whether `obj` belongs to `class`, directly or through a subclass.
    pub fn is_a(&self, obj: &Obj, class: &str) -> bool {
        self.kinds.iter().any(|(sub, sup)| *sub == obj.class && sup == class)
    }

    pub fn members<'a>(&'a self, class: &'a str) -> impl Iterator<Item = &'a Obj> + 'a {
        self.objs.iter().filter(move |o| self.is_a(o, class))
    }

    /// The objects a set-valued attribute of `obj` refers to.
    pub fn targets<'a>(&'a self, obj: &'a Obj, attr: &str) -> impl Iterator<Item = &'a Obj> + 'a {
        obj.set(attr).iter().filter_map(|v| self.get(sym(v)?))
    }

    /// The object a scalar attribute of `obj` refers to.
    pub fn target(&self, obj: &Obj, attr: &str) -> Option<&Obj> {
        self.get(obj.sym(attr)?)
    }
}
