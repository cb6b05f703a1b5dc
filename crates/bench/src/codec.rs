//! JSON record encodings for the grid cell outputs.
//!
//! One encoding serves both places a record leaves the process: the serve
//! daemon puts these objects on the wire, and the engine's sweep
//! checkpoint ([`lockbind_engine::checkpoint`]) embeds them as cell
//! payloads. Field order is fixed; `class` uses `FuClass`'s debug name and
//! `algo`/`scheme` their display labels, so wire responses, checkpoints,
//! and figure tables share one vocabulary.
//!
//! A finite float renders as Rust's shortest round-trip decimal, so a
//! decoded record is bit-identical to the encoded one and a resumed sweep
//! reproduces the uninterrupted run byte for byte. A non-finite float
//! renders as `null` and fails to decode, so its cell simply re-runs.

use lockbind_hls::FuClass;
use lockbind_obs::json::Json;

use crate::headline_cells::{HeadlineOutput, ImpactRecord, SatRecord, SatScheme};
use crate::{ErrorRecord, OverheadRecord, SecurityAlgo};

fn parse_class(text: &str) -> Option<FuClass> {
    match text {
        "Adder" => Some(FuClass::Adder),
        "Multiplier" => Some(FuClass::Multiplier),
        _ => None,
    }
}

fn parse_algo(text: &str) -> Option<SecurityAlgo> {
    [
        SecurityAlgo::ObfAware,
        SecurityAlgo::CoDesignHeuristic,
        SecurityAlgo::CoDesignOptimal,
    ]
    .into_iter()
    .find(|algo| algo.label() == text)
}

fn parse_scheme_label(text: &str) -> Option<&'static str> {
    SatScheme::ALL
        .into_iter()
        .map(SatScheme::label)
        .find(|label| *label == text)
}

fn as_usize(value: &Json) -> Option<usize> {
    usize::try_from(value.as_u64()?).ok()
}

/// Renders a record list as a JSON array.
pub fn records_json<T>(records: &[T], render: impl Fn(&T) -> Json) -> Json {
    Json::arr(records.iter().map(render))
}

/// Decodes a [`records_json`] array; `None` if any element fails.
pub fn records_from_json<T>(doc: &Json, decode: impl Fn(&Json) -> Option<T>) -> Option<Vec<T>> {
    match doc {
        Json::Array(items) => items.iter().map(decode).collect(),
        _ => None,
    }
}

/// Renders an [`ErrorRecord`] as a JSON object.
pub fn error_record_json(r: &ErrorRecord) -> Json {
    Json::obj([
        ("kernel", Json::from(r.kernel.as_str())),
        ("class", Json::from(format!("{:?}", r.class))),
        ("locked_fus", Json::from(r.locked_fus)),
        ("locked_inputs", Json::from(r.locked_inputs)),
        ("algo", Json::from(r.algo.label())),
        ("vs_area", Json::from(r.vs_area)),
        ("vs_power", Json::from(r.vs_power)),
        ("mean_errors", Json::from(r.mean_errors)),
        ("samples", Json::from(r.samples)),
    ])
}

/// Decodes [`error_record_json`] output; `None` on any malformed field.
pub fn error_record_from_json(doc: &Json) -> Option<ErrorRecord> {
    Some(ErrorRecord {
        kernel: doc["kernel"].as_str()?.to_string(),
        class: parse_class(doc["class"].as_str()?)?,
        locked_fus: as_usize(&doc["locked_fus"])?,
        locked_inputs: as_usize(&doc["locked_inputs"])?,
        algo: parse_algo(doc["algo"].as_str()?)?,
        vs_area: doc["vs_area"].as_f64()?,
        vs_power: doc["vs_power"].as_f64()?,
        mean_errors: doc["mean_errors"].as_f64()?,
        samples: as_usize(&doc["samples"])?,
    })
}

/// Renders an [`OverheadRecord`] as a JSON object.
pub fn overhead_record_json(r: &OverheadRecord) -> Json {
    Json::obj([
        ("kernel", Json::from(r.kernel.as_str())),
        ("algo", Json::from(r.algo.label())),
        ("register_increase", Json::from(r.register_increase)),
        ("switching_increase", Json::from(r.switching_increase)),
        ("area_registers", Json::from(r.area_registers)),
        ("power_switching", Json::from(r.power_switching)),
    ])
}

/// Decodes [`overhead_record_json`] output.
pub fn overhead_record_from_json(doc: &Json) -> Option<OverheadRecord> {
    Some(OverheadRecord {
        kernel: doc["kernel"].as_str()?.to_string(),
        algo: parse_algo(doc["algo"].as_str()?)?,
        register_increase: doc["register_increase"].as_f64()?,
        switching_increase: doc["switching_increase"].as_f64()?,
        area_registers: as_usize(&doc["area_registers"])?,
        power_switching: doc["power_switching"].as_f64()?,
    })
}

/// Renders an [`ImpactRecord`] (locked-sim output) as a JSON object.
pub fn impact_record_json(r: &ImpactRecord) -> Json {
    Json::obj([
        ("kernel", Json::from(r.kernel.as_str())),
        ("frame_rate", Json::from(r.frame_rate)),
        ("frames_corrupted", Json::from(r.frames_corrupted)),
        ("frames_total", Json::from(r.frames_total)),
    ])
}

/// Decodes [`impact_record_json`] output.
pub fn impact_record_from_json(doc: &Json) -> Option<ImpactRecord> {
    Some(ImpactRecord {
        kernel: doc["kernel"].as_str()?.to_string(),
        frame_rate: doc["frame_rate"].as_f64()?,
        frames_corrupted: doc["frames_corrupted"].as_u64()?,
        frames_total: doc["frames_total"].as_u64()?,
    })
}

/// Renders a [`SatRecord`] (SAT-attack output) as a JSON object.
pub fn sat_record_json(r: &SatRecord) -> Json {
    Json::obj([
        ("scheme", Json::from(r.scheme)),
        ("key_bits", Json::from(r.key_bits)),
        ("iterations", Json::from(r.iterations)),
        ("success", Json::from(r.success)),
        ("conflicts", Json::from(r.conflicts)),
        ("propagations", Json::from(r.propagations)),
        ("gc_runs", Json::from(r.gc_runs)),
    ])
}

/// Decodes [`sat_record_json`] output.
pub fn sat_record_from_json(doc: &Json) -> Option<SatRecord> {
    Some(SatRecord {
        scheme: parse_scheme_label(doc["scheme"].as_str()?)?,
        key_bits: as_usize(&doc["key_bits"])?,
        iterations: doc["iterations"].as_u64()?,
        success: doc["success"].as_bool()?,
        conflicts: doc["conflicts"].as_u64()?,
        propagations: doc["propagations"].as_u64()?,
        gc_runs: doc["gc_runs"].as_u64()?,
    })
}

/// Renders a combined-grid output as a one-key object tagged with its
/// variant: `{"error":[...]}`, `{"impact":{...}}` or `{"sat":{...}}`.
pub fn headline_output_json(output: &HeadlineOutput) -> Json {
    let (tag, body) = match output {
        HeadlineOutput::Error(records) => ("error", records_json(records, error_record_json)),
        HeadlineOutput::Impact(record) => ("impact", impact_record_json(record)),
        HeadlineOutput::Sat(record) => ("sat", sat_record_json(record)),
    };
    Json::obj([(tag, body)])
}

/// Decodes [`headline_output_json`] output.
pub fn headline_output_from_json(doc: &Json) -> Option<HeadlineOutput> {
    let Json::Object(pairs) = doc else {
        return None;
    };
    let [(tag, body)] = pairs.as_slice() else {
        return None;
    };
    match tag.as_str() {
        "error" => records_from_json(body, error_record_from_json).map(HeadlineOutput::Error),
        "impact" => impact_record_from_json(body).map(HeadlineOutput::Impact),
        "sat" => sat_record_from_json(body).map(HeadlineOutput::Sat),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockbind_obs::json::parse;
    use proptest::prelude::*;

    /// encode → render → parse: what a checkpoint record or a wire frame
    /// hands back to the decoder.
    fn through_text(doc: &Json) -> Json {
        parse(doc.render().as_bytes()).expect("rendered records parse")
    }

    fn sample_error_records() -> Vec<ErrorRecord> {
        vec![
            ErrorRecord {
                kernel: "fir".to_string(),
                class: FuClass::Adder,
                locked_fus: 2,
                locked_inputs: 3,
                algo: SecurityAlgo::ObfAware,
                vs_area: 1.5000000000000002,
                vs_power: 2.25,
                mean_errors: 0.1,
                samples: 40,
            },
            ErrorRecord {
                kernel: "jdmerge1".to_string(),
                class: FuClass::Multiplier,
                locked_fus: 1,
                locked_inputs: 1,
                algo: SecurityAlgo::CoDesignOptimal,
                vs_area: f64::MAX,
                vs_power: 1e-308,
                mean_errors: 3.0,
                samples: 1,
            },
        ]
    }

    fn sample_impact() -> ImpactRecord {
        ImpactRecord {
            kernel: "fir".to_string(),
            frame_rate: 0.125,
            frames_corrupted: 5,
            frames_total: 40,
        }
    }

    fn sample_sat() -> SatRecord {
        SatRecord {
            scheme: SatScheme::AntiSat.label(),
            key_bits: 6,
            iterations: 9,
            success: true,
            conflicts: 120,
            propagations: 4_903_114,
            gc_runs: 2,
        }
    }

    #[test]
    fn error_records_round_trip_bit_exactly() {
        let records = sample_error_records();
        let doc = through_text(&records_json(&records, error_record_json));
        let decoded = records_from_json(&doc, error_record_from_json).expect("decodes");
        assert_eq!(decoded.len(), records.len());
        for (d, r) in decoded.iter().zip(&records) {
            assert_eq!(format!("{d:?}"), format!("{r:?}"));
            assert_eq!(d.vs_area.to_bits(), r.vs_area.to_bits());
            assert_eq!(d.vs_power.to_bits(), r.vs_power.to_bits());
        }
    }

    #[test]
    fn empty_record_lists_round_trip() {
        let empty = through_text(&records_json::<ErrorRecord>(&[], error_record_json));
        assert!(records_from_json(&empty, error_record_from_json)
            .expect("empty list")
            .is_empty());
        assert!(records_from_json(&empty, overhead_record_from_json)
            .expect("empty list")
            .is_empty());
    }

    #[test]
    fn overhead_records_round_trip() {
        let records = vec![OverheadRecord {
            kernel: "motion2".to_string(),
            algo: SecurityAlgo::CoDesignHeuristic,
            register_increase: 0.07142857142857142,
            switching_increase: -0.003,
            area_registers: 14,
            power_switching: 2.75,
        }];
        let doc = through_text(&records_json(&records, overhead_record_json));
        let decoded = records_from_json(&doc, overhead_record_from_json).expect("decodes");
        assert_eq!(format!("{decoded:?}"), format!("{records:?}"));
    }

    #[test]
    fn headline_outputs_round_trip_all_variants() {
        let outputs = [
            HeadlineOutput::Error(sample_error_records()),
            HeadlineOutput::Error(Vec::new()),
            HeadlineOutput::Impact(sample_impact()),
            HeadlineOutput::Sat(sample_sat()),
        ];
        for output in &outputs {
            let doc = through_text(&headline_output_json(output));
            let decoded = headline_output_from_json(&doc).expect("decodes");
            assert_eq!(format!("{decoded:?}"), format!("{output:?}"));
        }
    }

    #[test]
    fn record_json_renderers_fix_field_order_and_labels() {
        let error = &sample_error_records()[0];
        assert_eq!(
            error_record_json(error).render(),
            "{\"kernel\":\"fir\",\"class\":\"Adder\",\"locked_fus\":2,\
             \"locked_inputs\":3,\"algo\":\"obf-aware\",\
             \"vs_area\":1.5000000000000002,\"vs_power\":2.25,\
             \"mean_errors\":0.1,\"samples\":40}"
        );
        assert_eq!(
            impact_record_json(&sample_impact()).render(),
            "{\"kernel\":\"fir\",\"frame_rate\":0.125,\
             \"frames_corrupted\":5,\"frames_total\":40}"
        );
        assert_eq!(
            sat_record_json(&sample_sat()).render(),
            "{\"scheme\":\"anti-sat\",\"key_bits\":6,\"iterations\":9,\
             \"success\":true,\"conflicts\":120,\"propagations\":4903114,\
             \"gc_runs\":2}"
        );
        assert_eq!(
            headline_output_json(&HeadlineOutput::Impact(sample_impact())).render(),
            "{\"impact\":{\"kernel\":\"fir\",\"frame_rate\":0.125,\
             \"frames_corrupted\":5,\"frames_total\":40}}"
        );
    }

    #[test]
    fn garbage_is_rejected_not_mangled() {
        let decode = |text: &str| parse(text.as_bytes()).expect("valid JSON");
        assert!(records_from_json(&decode("\"not a record\""), error_record_from_json).is_none());
        assert!(
            records_from_json(&decode("[{\"kernel\":\"fir\"}]"), error_record_from_json).is_none()
        );
        assert!(headline_output_from_json(&decode("{\"mystery\":[]}")).is_none());
        assert!(headline_output_from_json(&decode("{\"error\":[],\"sat\":{}}")).is_none());
        let mut sat = sat_record_json(&sample_sat());
        if let Json::Object(pairs) = &mut sat {
            pairs[1].1 = Json::from("not-a-number");
        }
        assert!(sat_record_from_json(&sat).is_none());
        let mut error = error_record_json(&sample_error_records()[0]);
        if let Json::Object(pairs) = &mut error {
            pairs[1].1 = Json::from("Divider");
        }
        assert!(error_record_from_json(&error).is_none());
    }

    #[test]
    fn non_finite_floats_fail_to_decode() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for field in 0..3 {
                let mut r = sample_error_records().remove(0);
                *[&mut r.vs_area, &mut r.vs_power, &mut r.mean_errors][field] = bad;
                let doc = through_text(&error_record_json(&r));
                assert!(
                    error_record_from_json(&doc).is_none(),
                    "{bad} in field {field}"
                );
            }
            for field in 0..3 {
                let mut r = OverheadRecord {
                    kernel: "fir".to_string(),
                    algo: SecurityAlgo::ObfAware,
                    register_increase: 0.5,
                    switching_increase: 0.25,
                    area_registers: 3,
                    power_switching: 1.0,
                };
                *[
                    &mut r.register_increase,
                    &mut r.switching_increase,
                    &mut r.power_switching,
                ][field] = bad;
                let doc = through_text(&overhead_record_json(&r));
                assert!(
                    overhead_record_from_json(&doc).is_none(),
                    "{bad} in field {field}"
                );
            }
            let impact = ImpactRecord {
                frame_rate: bad,
                ..sample_impact()
            };
            let doc = through_text(&headline_output_json(&HeadlineOutput::Impact(impact)));
            assert!(
                headline_output_from_json(&doc).is_none(),
                "{bad} frame rate"
            );
        }
    }

    /// Finite floats weighted toward the awkward cases: signed zero,
    /// subnormals, integer values (which render without a fraction and
    /// parse back as `UInt`), 2^63, 1e300, and raw bit patterns.
    fn finite_f64() -> impl Strategy<Value = f64> {
        (any::<u64>(), 0..10usize).prop_map(|(bits, pick)| match pick {
            0 => -0.0,
            1 => f64::from_bits(bits & 0x000f_ffff_ffff_ffff),
            2 => (bits >> 11) as f64,
            3 => -((bits % 1_000_000) as f64),
            4 => 9_223_372_036_854_775_808.0,
            5 => 1e300,
            6 => f64::MAX,
            _ => Some(f64::from_bits(bits))
                .filter(|v| v.is_finite())
                .unwrap_or(0.5),
        })
    }

    fn kernel_name() -> impl Strategy<Value = String> {
        (0..4usize)
            .prop_map(|pick| ["fir", "jdmerge1", "", "a\"b\\c\u{1}\x1e\x1fé"][pick].to_string())
    }

    fn bits_equal(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn error_records_survive_text_bit_exactly(
            kernel in kernel_name(),
            (class, algo) in (0..2usize, 0..3usize),
            (locked_fus, locked_inputs, samples) in (any::<u32>(), any::<u32>(), any::<u64>()),
            (vs_area, vs_power, mean_errors) in (finite_f64(), finite_f64(), finite_f64()),
        ) {
            let r = ErrorRecord {
                kernel,
                class: [FuClass::Adder, FuClass::Multiplier][class],
                locked_fus: locked_fus as usize,
                locked_inputs: locked_inputs as usize,
                algo: [
                    SecurityAlgo::ObfAware,
                    SecurityAlgo::CoDesignHeuristic,
                    SecurityAlgo::CoDesignOptimal,
                ][algo],
                vs_area,
                vs_power,
                mean_errors,
                samples: samples as usize,
            };
            let doc = through_text(&headline_output_json(&HeadlineOutput::Error(vec![r.clone()])));
            let Some(HeadlineOutput::Error(mut decoded)) = headline_output_from_json(&doc) else {
                panic!("error record does not decode: {}", doc.render());
            };
            let d = decoded.pop().expect("one record");
            prop_assert_eq!(format!("{d:?}"), format!("{r:?}"));
            prop_assert!(bits_equal(d.vs_area, r.vs_area));
            prop_assert!(bits_equal(d.vs_power, r.vs_power));
            prop_assert!(bits_equal(d.mean_errors, r.mean_errors));
        }

        #[test]
        fn overhead_records_survive_text_bit_exactly(
            kernel in kernel_name(),
            (algo, area_registers) in (0..3usize, any::<u64>()),
            (register_increase, switching_increase, power_switching)
                in (finite_f64(), finite_f64(), finite_f64()),
        ) {
            let r = OverheadRecord {
                kernel,
                algo: [
                    SecurityAlgo::ObfAware,
                    SecurityAlgo::CoDesignHeuristic,
                    SecurityAlgo::CoDesignOptimal,
                ][algo],
                register_increase,
                switching_increase,
                area_registers: area_registers as usize,
                power_switching,
            };
            let doc = through_text(&records_json(std::slice::from_ref(&r), overhead_record_json));
            let d = records_from_json(&doc, overhead_record_from_json)
                .expect("decodes")
                .pop()
                .expect("one record");
            prop_assert_eq!(format!("{d:?}"), format!("{r:?}"));
            prop_assert!(bits_equal(d.register_increase, r.register_increase));
            prop_assert!(bits_equal(d.switching_increase, r.switching_increase));
            prop_assert!(bits_equal(d.power_switching, r.power_switching));
        }

        #[test]
        fn impact_and_sat_records_survive_text(
            kernel in kernel_name(),
            frame_rate in finite_f64(),
            (frames_corrupted, frames_total) in (any::<u64>(), any::<u64>()),
            (scheme, key_bits, success) in (0..4usize, any::<u32>(), any::<bool>()),
            (iterations, conflicts, propagations, gc_runs)
                in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        ) {
            let impact = ImpactRecord { kernel, frame_rate, frames_corrupted, frames_total };
            let doc = through_text(&headline_output_json(&HeadlineOutput::Impact(impact.clone())));
            let Some(HeadlineOutput::Impact(d)) = headline_output_from_json(&doc) else {
                panic!("impact record does not decode: {}", doc.render());
            };
            prop_assert_eq!(format!("{d:?}"), format!("{impact:?}"));
            prop_assert!(bits_equal(d.frame_rate, impact.frame_rate));

            let sat = SatRecord {
                scheme: SatScheme::ALL[scheme].label(),
                key_bits: key_bits as usize,
                iterations,
                success,
                conflicts,
                propagations,
                gc_runs,
            };
            let doc = through_text(&headline_output_json(&HeadlineOutput::Sat(sat.clone())));
            let Some(HeadlineOutput::Sat(d)) = headline_output_from_json(&doc) else {
                panic!("sat record does not decode: {}", doc.render());
            };
            prop_assert_eq!(format!("{d:?}"), format!("{sat:?}"));
        }
    }
}
