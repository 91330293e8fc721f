//! A dense table keyed by [`ModelId`].
//!
//! Model ids are minted densely (`0..n`) by whoever registers the models,
//! and every layer keeps "a value per registered model": the facade's
//! catalog, each worker's host copy of it, every scheduler's per-model
//! state (whose inner loops look several tables up per model per pass), the
//! telemetry's per-model counts. All of them are this one id-indexed vector
//! instead of a map: a lookup is a bounds check, and walking a table visits
//! models in ascending id order by construction — no hasher seed, no sort.
//! Sparse ids work too; the table just grows to the largest id inserted, so
//! memory is O(largest id), not O(models). A *sparse subset* of the models
//! (what one GPU holds, say) is not this table's job; that is a `Vec` kept
//! sorted by id and binary-searched.

use crate::spec::ModelId;

/// A map from [`ModelId`] to `T`, stored as a vector indexed by the id.
#[derive(Clone, Debug)]
pub struct ModelTable<T> {
    slots: Vec<Option<T>>,
}

impl<T> Default for ModelTable<T> {
    fn default() -> Self {
        ModelTable { slots: Vec::new() }
    }
}

impl<T> ModelTable<T> {
    /// The value stored for `id`, if any. Never allocates, whatever the id.
    pub fn get(&self, id: ModelId) -> Option<&T> {
        self.slots.get(id.index())?.as_ref()
    }

    /// Mutable access to the value stored for `id`, if any.
    pub fn get_mut(&mut self, id: ModelId) -> Option<&mut T> {
        self.slots.get_mut(id.index())?.as_mut()
    }

    /// Stores `value` for `id`, replacing any previous value.
    pub fn insert(&mut self, id: ModelId, value: T) {
        *self.slot(id) = Some(value);
    }

    /// The value stored for `id`, inserting the default first if absent.
    pub fn get_or_default(&mut self, id: ModelId) -> &mut T
    where
        T: Default,
    {
        self.slot(id).get_or_insert_with(T::default)
    }

    /// Number of ids that have a value.
    pub fn len(&self) -> usize {
        self.values().count()
    }

    /// Whether no id has a value.
    pub fn is_empty(&self) -> bool {
        self.values().next().is_none()
    }

    /// The stored entries, in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (ModelId, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(index, slot)| Some((ModelId(index as u32), slot.as_ref()?)))
    }

    /// The stored values, in ascending id order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().flatten()
    }

    /// Mutable access to the stored values, in ascending id order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.slots.iter_mut().flatten()
    }

    fn slot(&mut self, id: ModelId) -> &mut Option<T> {
        let index = id.index();
        if index >= self.slots.len() {
            self.slots.resize_with(index + 1, || None);
        }
        &mut self.slots[index]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_ids_grow_the_table_and_lookups_never_do() {
        let mut t: ModelTable<u32> = ModelTable::default();
        assert_eq!(t.get(ModelId(u32::MAX)), None, "lookup must not allocate");
        t.insert(ModelId(7), 70);
        *t.get_or_default(ModelId(2)) += 5;
        *t.get_or_default(ModelId(7)) += 1;
        assert_eq!(t.get(ModelId(7)), Some(&71));
        assert_eq!(t.get(ModelId(2)), Some(&5));
        assert_eq!(t.get(ModelId(3)), None);
        assert_eq!(t.get_mut(ModelId(999)), None);
        let entries = |t: &ModelTable<u32>| t.iter().map(|(id, &v)| (id.0, v)).collect::<Vec<_>>();
        assert_eq!(entries(&t), vec![(2, 5), (7, 71)]);
        t.insert(ModelId(2), 9);
        assert_eq!(entries(&t), vec![(2, 9), (7, 71)]);
    }
}
