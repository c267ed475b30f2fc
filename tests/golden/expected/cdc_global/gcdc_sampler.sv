// gcdc | topology global_cdc_dest | model 2e625f16bb03
// generated by regforge; do not edit

module gcdc_sampler (
    input  logic clk,
    input  logic [45:0] settings_in,
    output logic [31:0] cfg_rate,
    output logic [13:0] cfg_offset
);

    logic [45:0] sync_0;
    logic [45:0] sync_1;

    always_ff @(posedge clk) begin
        sync_0 <= settings_in;
        sync_1 <= sync_0;
    end

    logic [45:0] dest_q;

    always_ff @(posedge clk) begin
        dest_q <= sync_1;
    end

    assign cfg_rate = dest_q[31:0];
    assign cfg_offset = dest_q[45:32];

endmodule
