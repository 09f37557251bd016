//! A battery-less wearable recognizing activities from accelerometer
//! windows (the paper's HAR workload), compared across all six
//! implementations on intermittent power.
//!
//! Run with: `cargo run --release --example har_wearable`

use sonic_tails::mcu::{DeviceSpec, PowerSystem};
use sonic_tails::models::{trained, Network};
use sonic_tails::sonic::exec::{run_inference, Backend};

fn main() {
    let net = trained(Network::Har);
    println!(
        "HAR network: {} (quantized accuracy {:.3})",
        net.model.describe(),
        net.accuracy
    );
    let spec = DeviceSpec::msp430fr5994();
    let input = net.qmodel.quantize_input(&net.test.input(0));
    println!("\nimpl      power  completed  live(s)   total(s)  energy(mJ)");
    for backend in Backend::paper_suite() {
        for power in [PowerSystem::continuous(), PowerSystem::cap_100uf()] {
            let power_label = power.label();
            let out = run_inference(&net.qmodel, &input, &spec, power, &backend);
            println!(
                "{:<9} {:<6} {:<10} {:<9.4} {:<9.3} {:.3}",
                backend.label(),
                power_label,
                if out.completed { "yes" } else { "DNC" },
                out.live_secs(&spec),
                out.total_secs(&spec),
                out.energy_mj()
            );
        }
    }
}
