//! The JSON request decoder: one pass over the document with the vendored
//! pull [`Reader`], straight into the task graph's parts and the request
//! envelope — no `Value` tree, no `String` per key, no `Vec` per array.
//!
//! It reads exactly what [`crate::wire::parse_request_reference`] (parse
//! the whole tree, then deserialise it) reads, and the two share their
//! judgement: the graph's shape, point and invariant checks
//! ([`GraphFields::build`]) and the envelope's field checks
//! ([`Fields::into_request`]). What is left here is the walk, and it keeps
//! the tree path's rules:
//!
//! * the whole document is syntax-checked before any field is judged, so
//!   a syntax error anywhere answers `bad_json`;
//! * the first occurrence of a repeated key wins, and later ones are only
//!   syntax-checked;
//! * unknown keys are syntax-checked and ignored at every level;
//! * a value of the wrong kind is skipped, and the type error is the one
//!   the derived `Deserialize` gives for an empty value of that kind
//!   ([`Reader::scalar`]), so messages match the tree path's word for word;
//! * the rare `model` subtree goes through the tree and the derived
//!   `Deserialize`.

use crate::wire::{Fields, ModelSpec, ScheduleRequest, WireError};
use batsched_battery::units::{MilliAmps, Minutes, Volts};
use batsched_taskgraph::io::GraphFields;
use batsched_taskgraph::{DesignPoint, TaskNode};
use serde::json::{field_result, Error, Kind, Reader, Value};
use serde::Deserialize;
use std::mem::ManuallyDrop;

/// One field's outcome: the outer `Err` is a syntax error (it ends the
/// read), the inner one a type error (judged once the document is read).
type Read<T> = Result<Result<T, Error>, Error>;

/// Decodes one JSON request document; see the module docs.
pub(crate) fn decode(doc: &str) -> Result<ScheduleRequest, WireError> {
    let mut r = Reader::new(doc);
    let fields = read_fields(&mut r)
        .and_then(|fields| r.finish().map(|()| fields))
        .map_err(|e| WireError::Syntax {
            message: e.to_string(),
        })?;
    fields.ok_or_else(WireError::not_an_object)?.into_request()
}

/// The envelope's fields, or `None` when the document is not an object.
fn read_fields(r: &mut Reader<'_>) -> Result<Option<Fields>, Error> {
    if r.peek_kind()? != Kind::Obj {
        r.skip()?;
        return Ok(None);
    }
    r.begin_object()?;
    let mut f = Fields::default();
    while let Some(key) = r.next_key()? {
        match &*key {
            "v" if f.v.is_none() => f.v = Some(scalar(r)?),
            "graph" if f.graph.is_none() => f.graph = Some(read_graph(r)?),
            "deadline" if f.deadline.is_none() => f.deadline = Some(scalar(r)?),
            "model" if f.model.is_none() => {
                f.model = Some(Option::<ModelSpec>::from_value(&r.value()?));
            }
            "capacity" if f.capacity.is_none() => f.capacity = Some(scalar(r)?),
            "max_iterations" if f.max_iterations.is_none() => {
                f.max_iterations = Some(scalar(r)?);
            }
            _ => r.skip()?,
        }
    }
    Ok(Some(f))
}

/// A value of a type that reads only the value's kind or a scalar.
#[inline(always)]
fn scalar<T: Deserialize>(r: &mut Reader<'_>) -> Read<T> {
    // Numbers, the common case, skip the `Value` round trip through
    // `Reader::scalar`.
    if r.peek_kind()? == Kind::Num {
        // A number owns nothing, so its (out-of-line) drop glue is skipped.
        let v = ManuallyDrop::new(Value::Num(r.number()?));
        return Ok(T::from_value(&v));
    }
    Ok(T::from_value(&r.scalar()?))
}

fn read_graph(r: &mut Reader<'_>) -> Result<GraphFields, Error> {
    let mut g = GraphFields::default();
    if r.peek_kind()? != Kind::Obj {
        r.skip()?;
        return Ok(g);
    }
    g.object = true;
    r.begin_object()?;
    // One design-point row buffer for every task: each row is read into it,
    // then copied out at its exact size.
    let mut row = Vec::new();
    while let Some(key) = r.next_key()? {
        match &*key {
            "tasks" if g.tasks.is_none() => {
                g.tasks = Some(read_vec(r, |r| read_task(r, &mut row))?);
            }
            "edges" if g.edges.is_none() => g.edges = Some(read_vec(r, read_edge)?),
            _ => r.skip()?,
        }
    }
    Ok(g)
}

/// An array read item by item; the first item's type error is the
/// array's (the rest is only syntax-checked), as in `Vec::from_value`.
fn read_vec<T: Deserialize>(
    r: &mut Reader<'_>,
    item: impl FnMut(&mut Reader<'_>) -> Read<T>,
) -> Read<Vec<T>> {
    let mut out = Vec::new();
    Ok(read_items(r, &mut out, item)?.map(|()| out))
}

/// [`read_vec`] into `out`, which the caller owns (and may reuse).
fn read_items<T: Deserialize>(
    r: &mut Reader<'_>,
    out: &mut Vec<T>,
    mut item: impl FnMut(&mut Reader<'_>) -> Read<T>,
) -> Read<()> {
    if r.peek_kind()? != Kind::Arr {
        return Ok(scalar::<Vec<T>>(r)?.map(drop));
    }
    r.begin_array()?;
    while r.next_item()? {
        match item(r)? {
            Ok(x) => out.push(x),
            Err(e) => {
                while r.next_item()? {
                    r.skip()?;
                }
                return Ok(Err(e));
            }
        }
    }
    Ok(Ok(()))
}

/// A task; its design points are read into `row`, then copied out at
/// their exact count.
fn read_task(r: &mut Reader<'_>, row: &mut Vec<DesignPoint>) -> Read<TaskNode> {
    if r.peek_kind()? != Kind::Obj {
        return scalar(r);
    }
    r.begin_object()?;
    let (mut name, mut points) = (None, None);
    while let Some(key) = r.next_key()? {
        match &*key {
            "name" if name.is_none() => name = Some(read_string(r)?),
            "points" if points.is_none() => {
                row.clear();
                points = Some(read_items(r, row, read_point)?.map(|()| row.to_vec()));
            }
            _ => r.skip()?,
        }
    }
    Ok(field_result(name, "name").and_then(|name| {
        Ok(TaskNode {
            name,
            points: field_result(points, "points")?,
        })
    }))
}

fn read_string(r: &mut Reader<'_>) -> Read<String> {
    if r.peek_kind()? != Kind::Str {
        return scalar(r);
    }
    Ok(Ok(r.string()?.into_owned()))
}

fn read_point(r: &mut Reader<'_>) -> Read<DesignPoint> {
    if r.peek_kind()? != Kind::Obj {
        return scalar(r);
    }
    r.begin_object()?;
    let (mut duration, mut current, mut voltage) = (None, None, None);
    while let Some(key) = r.next_key()? {
        let slot = match &*key {
            "duration" => &mut duration,
            "current" => &mut current,
            "voltage" => &mut voltage,
            _ => {
                r.skip()?;
                continue;
            }
        };
        if slot.is_some() {
            r.skip()?;
        } else {
            *slot = Some(scalar::<f64>(r)?);
        }
    }
    Ok(field_result(duration, "duration").and_then(|duration| {
        Ok(DesignPoint {
            duration: Minutes::new(duration),
            current: MilliAmps::new(field_result(current, "current")?),
            voltage: Volts::new(field_result(voltage, "voltage")?),
        })
    }))
}

fn read_edge(r: &mut Reader<'_>) -> Read<(usize, usize)> {
    if r.peek_kind()? != Kind::Arr {
        return scalar(r);
    }
    r.begin_array()?;
    let mut ends = [Ok(0), Ok(0)];
    let mut len = 0usize;
    while r.next_item()? {
        let end = scalar::<usize>(r)?;
        if let Some(slot) = ends.get_mut(len) {
            *slot = end;
        }
        len += 1;
    }
    let [from, to] = ends;
    Ok(if len == 2 {
        from.and_then(|from| Ok((from, to?)))
    } else {
        // The tuple's arity error, from an (allocation-free) empty array.
        <(usize, usize)>::from_value(&Value::Arr(Vec::new()))
    })
}
